# CTest script: the acceptance bar for the workset cache.  One
# arch-axis experiment slice (fig8 narrowed to one network) runs with
# the default budget and with a starvation-level --workset-budget-mb;
# the .jsonl result documents must be byte-identical (eviction changes
# hit rates, never results), and the budgeted run must really evict.
#
# Invoked as:
#   cmake -DGRIFFIN_BENCH=<path> -DWORK_DIR=<dir> -P workset_cache.cmake

if(NOT GRIFFIN_BENCH OR NOT WORK_DIR)
    message(FATAL_ERROR "need -DGRIFFIN_BENCH=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(common_args
    run fig8
    --grid "network=alexnet"
    --sample 0.02 --rowcap 8 --threads 2 --stats)

execute_process(
    COMMAND "${GRIFFIN_BENCH}" ${common_args}
            --out "${WORK_DIR}/default.jsonl"
    OUTPUT_VARIABLE out1 ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "default-budget run failed (${rc}):\n${err}")
endif()
execute_process(
    COMMAND "${GRIFFIN_BENCH}" ${common_args} --workset-budget-mb 1
            --out "${WORK_DIR}/budgeted.jsonl"
    OUTPUT_VARIABLE out2 ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "budgeted run failed (${rc}):\n${err}")
endif()

file(READ "${WORK_DIR}/default.jsonl" doc1)
file(READ "${WORK_DIR}/budgeted.jsonl" doc2)
string(LENGTH "${doc1}" doc1_len)
if(doc1_len EQUAL 0)
    message(FATAL_ERROR "results document is empty")
endif()
if(NOT doc1 STREQUAL doc2)
    message(FATAL_ERROR "workset eviction changed the results")
endif()
if(NOT out2 MATCHES "\"workset_cache\\.evictions\": [1-9]")
    message(FATAL_ERROR "--workset-budget-mb 1 evicted no workset; the "
                        "comparison shows nothing:\n${out2}")
endif()

message(STATUS "workset cache OK: default and budgeted runs are "
               "byte-identical, the budgeted run evicts")
