# CTest script: fig7 rows against the checked-in baseline, byte for
# byte, under both SIMD dispatch paths.
#
# fig7 is the Sparse.AB design-space sweep, so it is the experiment
# that runs the dual-sparse scheduler.  The same smoke-fidelity slice
# CI's bench-smoke job produces runs once under auto dispatch and once
# with GRIFFIN_FORCE_SCALAR=1; each row document must equal
# bench/baselines/fig7.jsonl.  Any diff is a behaviour change of the
# simulator, not noise: the output is deterministic.
#
# Invoked as:
#   cmake -DGRIFFIN_BENCH=<path> -DBASELINE=<fig7.jsonl>
#         -DWORK_DIR=<dir> -P baseline_fig7.cmake

if(NOT GRIFFIN_BENCH OR NOT BASELINE OR NOT WORK_DIR)
    message(FATAL_ERROR
        "need -DGRIFFIN_BENCH=... -DBASELINE=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(fidelity --sample 0.01 --rowcap 4 --threads 2)

file(READ "${BASELINE}" rows_want)
string(LENGTH "${rows_want}" want_len)
if(want_len EQUAL 0)
    message(FATAL_ERROR "baseline ${BASELINE} is empty")
endif()

foreach(leg auto scalar)
    if(leg STREQUAL "scalar")
        set(env ${CMAKE_COMMAND} -E env GRIFFIN_FORCE_SCALAR=1)
    else()
        set(env)
    endif()
    execute_process(
        COMMAND ${env} "${GRIFFIN_BENCH}" run fig7 ${fidelity}
                --out "${WORK_DIR}/${leg}.jsonl"
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${leg}-dispatch fig7 run failed (${rc}):\n"
                            "${err}")
    endif()
    file(READ "${WORK_DIR}/${leg}.jsonl" rows_got)
    if(NOT rows_got STREQUAL rows_want)
        message(FATAL_ERROR
            "${leg}-dispatch fig7 rows differ from ${BASELINE}")
    endif()
endforeach()

message(STATUS "baseline_fig7: auto and forced-scalar fig7 rows equal "
               "the checked-in baseline")
