# CTest script: end-to-end telemetry smoke.
#
#  (a) `run fig5 fig6 --trace` emits a Chrome-trace JSON covering all
#      six pipeline stages (fig5 exercises the B-side five, fig6 adds
#      a_schedule) while the --out row document stays byte-identical
#      to an untraced run at a different thread count — telemetry must
#      be observation only.  A schedule-aware run (ablation_memory_peak)
#      additionally emits the nested 'schedule' span.
#  (b) `run --timings` grows elapsed_ms fields; the default does not.
#  (c) `perf` writes a BENCH_perf.json that `perf --compare` parses,
#      schema-validates, and renders deltas for (self-compare: every
#      delta is +0.0%); perf honours --workset-budget-mb, refuses
#      --cache-file, and `--gate` fails a kernels-only document.
#
# Invoked as:
#   cmake -DGRIFFIN_BENCH=<path> -DWORK_DIR=<dir> -P telemetry_smoke.cmake

if(NOT GRIFFIN_BENCH OR NOT WORK_DIR)
    message(FATAL_ERROR "need -DGRIFFIN_BENCH=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(fidelity --sample 0.01 --rowcap 4)

# -- (a) traced vs untraced rows --------------------------------------

execute_process(
    COMMAND "${GRIFFIN_BENCH}" run fig5 fig6 ${fidelity}
            --threads 2 --out "${WORK_DIR}/plain.jsonl"
    OUTPUT_VARIABLE out1 ERROR_VARIABLE err1 RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
    message(FATAL_ERROR "untraced run failed (${rc1}):\n${err1}")
endif()

execute_process(
    COMMAND "${GRIFFIN_BENCH}" run fig5 fig6 ${fidelity}
            --threads 4 --trace "${WORK_DIR}/trace.json"
            --out "${WORK_DIR}/traced.jsonl"
    OUTPUT_VARIABLE out2 ERROR_VARIABLE err2 RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
    message(FATAL_ERROR "traced run failed (${rc2}):\n${err2}")
endif()

file(READ "${WORK_DIR}/plain.jsonl" rows_plain)
file(READ "${WORK_DIR}/traced.jsonl" rows_traced)
if(NOT rows_plain STREQUAL rows_traced)
    message(FATAL_ERROR "--trace changed the result rows")
endif()
string(LENGTH "${rows_plain}" rows_len)
if(rows_len EQUAL 0)
    message(FATAL_ERROR "result row document is empty")
endif()

file(READ "${WORK_DIR}/trace.json" trace)
if(NOT trace MATCHES "\"traceEvents\"")
    message(FATAL_ERROR "trace file is not a Chrome trace document")
endif()
foreach(stage operand_gen b_schedule a_schedule tile_sim memory_model
        reduce)
    if(NOT trace MATCHES "\"${stage}\"")
        message(FATAL_ERROR "trace has no '${stage}' spans")
    endif()
endforeach()

# -- (a2) schedule-aware runs add the nested schedule span ------------

execute_process(
    COMMAND "${GRIFFIN_BENCH}" run ablation_memory_peak ${fidelity}
            --threads 2 --trace "${WORK_DIR}/sched_trace.json"
    OUTPUT_VARIABLE out_s ERROR_VARIABLE err_s RESULT_VARIABLE rc_s)
if(NOT rc_s EQUAL 0)
    message(FATAL_ERROR "traced ablation_memory_peak run failed "
                        "(${rc_s}):\n${err_s}")
endif()
file(READ "${WORK_DIR}/sched_trace.json" sched_trace)
if(NOT sched_trace MATCHES "\"schedule\"")
    message(FATAL_ERROR
            "schedule-aware trace has no 'schedule' spans")
endif()

# -- (b) --timings opt-in ---------------------------------------------

if(rows_plain MATCHES "elapsed_ms")
    message(FATAL_ERROR "default run emitted elapsed_ms — --timings "
                        "must be opt-in")
endif()

execute_process(
    COMMAND "${GRIFFIN_BENCH}" run fig6 ${fidelity} --threads 2
            --timings --out "${WORK_DIR}/timed.jsonl"
    OUTPUT_VARIABLE out3 ERROR_VARIABLE err3 RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 0)
    message(FATAL_ERROR "--timings run failed (${rc3}):\n${err3}")
endif()
file(READ "${WORK_DIR}/timed.jsonl" rows_timed)
if(NOT rows_timed MATCHES "\"elapsed_ms\": ")
    message(FATAL_ERROR "--timings run emitted no elapsed_ms fields")
endif()

# -- (c) perf artifact + compare --------------------------------------

execute_process(
    COMMAND "${GRIFFIN_BENCH}" perf fig6 ${fidelity} --threads 2
            --workset-budget-mb 1 --out "${WORK_DIR}/BENCH_perf.json"
    OUTPUT_VARIABLE out4 ERROR_VARIABLE err4 RESULT_VARIABLE rc4)
if(NOT rc4 EQUAL 0)
    message(FATAL_ERROR "perf run failed (${rc4}):\n${err4}")
endif()
file(READ "${WORK_DIR}/BENCH_perf.json" perf_doc)
if(NOT perf_doc MATCHES "\"schema\": \"griffin_bench_perf\"")
    message(FATAL_ERROR "perf artifact lacks the schema tag")
endif()
if(NOT perf_doc MATCHES "\"stages\": \\[")
    message(FATAL_ERROR "perf artifact has no stage breakdown")
endif()
# perf honours the budget flags: a 1 MiB workset cache must evict.
string(REGEX MATCH "\"workset\": {[^}]*\"evictions\": ([0-9]+)"
       _ "${perf_doc}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
    message(FATAL_ERROR "--workset-budget-mb 1 left the perf run's "
                        "workset cache without evictions:\n${perf_doc}")
endif()

# A cache file would warm the very sweeps perf times: usage error.
execute_process(
    COMMAND "${GRIFFIN_BENCH}" perf fig6 ${fidelity}
            --cache-file "${WORK_DIR}/warm.grfc"
            --out "${WORK_DIR}/warm_perf.json"
    OUTPUT_VARIABLE out_cf ERROR_VARIABLE err_cf RESULT_VARIABLE rc_cf)
if(NOT rc_cf EQUAL 2 OR NOT err_cf MATCHES "--cache-file")
    message(FATAL_ERROR "perf --cache-file was not refused (${rc_cf}):\n"
                        "${err_cf}")
endif()

execute_process(
    COMMAND "${GRIFFIN_BENCH}" perf --compare
            "${WORK_DIR}/BENCH_perf.json" "${WORK_DIR}/BENCH_perf.json"
    OUTPUT_VARIABLE out5 ERROR_VARIABLE err5 RESULT_VARIABLE rc5)
if(NOT rc5 EQUAL 0)
    message(FATAL_ERROR
            "perf --compare rejected its own artifact (${rc5}):\n${err5}")
endif()
if(NOT out5 MATCHES "\\+0\\.0%")
    message(FATAL_ERROR "self-compare rendered a nonzero delta:\n${out5}")
endif()

# The gate must fail a document that simulated nothing: a kernels-only
# artifact at the same fidelity is missing the old document's fig6.
execute_process(
    COMMAND "${GRIFFIN_BENCH}" perf --kernels ${fidelity} --threads 2
            --out "${WORK_DIR}/kernels_only.json"
    OUTPUT_VARIABLE out6 ERROR_VARIABLE err6 RESULT_VARIABLE rc6)
if(NOT rc6 EQUAL 0)
    message(FATAL_ERROR "perf --kernels failed (${rc6}):\n${err6}")
endif()
execute_process(
    COMMAND "${GRIFFIN_BENCH}" perf --compare --gate
            "${WORK_DIR}/BENCH_perf.json" "${WORK_DIR}/kernels_only.json"
    OUTPUT_VARIABLE out7 ERROR_VARIABLE err7 RESULT_VARIABLE rc7)
if(rc7 EQUAL 0 OR NOT err7 MATCHES "fig6: missing")
    message(FATAL_ERROR "gate passed a kernels-only document (${rc7}):\n"
                        "${err7}")
endif()

message(STATUS "telemetry smoke OK: identical rows, six-stage trace, "
               "opt-in timings, valid perf artifact, budgeted perf "
               "caches, failing gate on a kernels-only document")
