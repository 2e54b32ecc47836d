# CLI contract checks for epserve_exp that need exact exit codes or
# byte-compared files (ctest's PASS_REGULAR_EXPRESSION can verify neither).
# Invoked per check by examples/CMakeLists.txt:
#   cmake -DEXP_BIN=<binary> -DCHECK=<name> -DREPO_DIR=<source tree>
#         -DWORK_DIR=<scratch dir> -P exp_checks.cmake

if(CHECK STREQUAL "unknown_spec")
  # An unknown spec name is a usage error: exit code exactly 2 and a
  # diagnostic listing the known registry names.
  execute_process(COMMAND ${EXP_BIN} run no_such_spec
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "expected exit 2 for unknown spec, got ${code}")
  endif()
  foreach(name smoke default scale)
    if(NOT err MATCHES "${name}")
      message(FATAL_ERROR "diagnostic does not list spec '${name}': ${err}")
    endif()
  endforeach()

elseif(CHECK STREQUAL "threads_invariance")
  # The determinism contract, end to end through the CLI: the default-spec
  # result document is byte-identical at 1 and 8 worker threads.
  set(one "${WORK_DIR}/exp_default_t1.json")
  set(eight "${WORK_DIR}/exp_default_t8.json")
  execute_process(COMMAND ${EXP_BIN} run default --threads 1 --out ${one}
                  RESULT_VARIABLE code ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "run default --threads 1 failed (${code}): ${err}")
  endif()
  execute_process(COMMAND ${EXP_BIN} run default --threads 8 --out ${eight}
                  RESULT_VARIABLE code ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "run default --threads 8 failed (${code}): ${err}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${one} ${eight}
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "result documents differ between 1 and 8 threads")
  endif()

elseif(CHECK STREQUAL "run_committed")
  # The simulation itself against the committed artifact: running the default
  # spec reproduces experiments/exp_default.json byte for byte (the other
  # checks only re-render that file or compare two fresh runs).
  set(ran "${WORK_DIR}/exp_default_run.json")
  execute_process(COMMAND ${EXP_BIN} run default --out ${ran}
                  RESULT_VARIABLE code ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "run default failed (${code}): ${err}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${ran} ${REPO_DIR}/experiments/exp_default.json
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR
            "run default differs from committed experiments/exp_default.json "
            "(regenerate only for an intended change: build/examples/"
            "epserve_exp run default --out experiments/exp_default.json)")
  endif()

elseif(CHECK STREQUAL "render_committed")
  # The committed sweep report regenerates byte-for-byte from the committed
  # result document (render is pure parse + format — no simulation).
  set(rendered "${WORK_DIR}/EXPERIMENTS_SWEEPS.rendered.md")
  execute_process(COMMAND ${EXP_BIN} render
                          ${REPO_DIR}/experiments/exp_default.json
                          --out ${rendered}
                  RESULT_VARIABLE code ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "render failed (${code}): ${err}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${rendered} ${REPO_DIR}/EXPERIMENTS_SWEEPS.md
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR
            "rendered report differs from committed EXPERIMENTS_SWEEPS.md "
            "(regenerate: build/examples/epserve_exp render "
            "experiments/exp_default.json --out EXPERIMENTS_SWEEPS.md)")
  endif()

elseif(CHECK STREQUAL "claims_committed")
  # The paper-claims table regenerates byte for byte, with every claim inside
  # its accepted outcome, at 1 and at 8 worker threads, and at 8 with the
  # power kernels forced to their scalar variant (the placement, day,
  # ensemble and KnightShift claims run through the kernel layer).
  foreach(run "EPSERVE_THREADS=1" "EPSERVE_THREADS=8"
              "EPSERVE_THREADS=8;EPSERVE_FORCE_SCALAR=1")
    string(REPLACE ";" " " label "${run}")
    string(MAKE_C_IDENTIFIER "${run}" tag)
    set(out "${WORK_DIR}/EXPERIMENTS_CLAIMS.${tag}.md")
    execute_process(COMMAND ${CMAKE_COMMAND} -E env ${run}
                            ${EXP_BIN} claims --out ${out}
                    RESULT_VARIABLE code ERROR_VARIABLE err)
    if(NOT code EQUAL 0)
      message(FATAL_ERROR "claims at ${label} failed (${code}): ${err}")
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${out} ${REPO_DIR}/EXPERIMENTS_CLAIMS.md
                    RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      message(FATAL_ERROR
              "claims at ${label} differ from committed "
              "EXPERIMENTS_CLAIMS.md (regenerate only for an intended change: "
              "build/examples/epserve_exp claims --out EXPERIMENTS_CLAIMS.md)")
    endif()
  endforeach()

else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
