# CTest script: the acceptance bar for grid sharding.  One experiment
# (fig5, narrowed by a --grid override to three B-side-compatible
# design points on one network) is run
#   (a) unsharded on 1 and 8 threads   -> byte-identical .jsonl docs
#   (b) as three --grid-shard slices
#       -> concatenating the slices in shard order is byte-identical
#          to the unsharded document.
#
# Invoked as:
#   cmake -DGRIFFIN_BENCH=<path> -DWORK_DIR=<dir> -P grid_shard.cmake

if(NOT GRIFFIN_BENCH OR NOT WORK_DIR)
    message(FATAL_ERROR "need -DGRIFFIN_BENCH=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(common_args
    run fig5
    --grid "arch=Sparse.B*,AB(2,0,0,4,0,1,on),AB(1,0,0,4,0,1,on),network=alexnet"
    --sample 0.02 --rowcap 8)

# (a) unsharded, thread-count invariance of the .jsonl document.
foreach(threads 1 8)
    execute_process(
        COMMAND "${GRIFFIN_BENCH}" ${common_args} --threads ${threads}
                --out "${WORK_DIR}/full_t${threads}.jsonl"
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "unsharded griffin_bench run failed on ${threads} "
                "threads (${rc}):\n${err}")
    endif()
endforeach()

file(READ "${WORK_DIR}/full_t1.jsonl" full_doc)
file(READ "${WORK_DIR}/full_t8.jsonl" doc8)
if(NOT full_doc STREQUAL doc8)
    message(FATAL_ERROR
            "unsharded .jsonl differs between --threads 1 and 8")
endif()
string(LENGTH "${full_doc}" full_len)
if(full_len EQUAL 0)
    message(FATAL_ERROR "unsharded .jsonl document is empty")
endif()

# (b) three shards, run in shard order.
foreach(shard 0 1 2)
    execute_process(
        COMMAND "${GRIFFIN_BENCH}" ${common_args} --threads 2
                --grid-shard ${shard}/3
                --out "${WORK_DIR}/shard${shard}.jsonl"
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "shard ${shard}/3 failed (${rc}):\n${err}")
    endif()
endforeach()

file(READ "${WORK_DIR}/shard0.jsonl" s0)
file(READ "${WORK_DIR}/shard1.jsonl" s1)
file(READ "${WORK_DIR}/shard2.jsonl" s2)
if(NOT "${s0}${s1}${s2}" STREQUAL full_doc)
    message(FATAL_ERROR
            "concatenated shard .jsonl differs from the unsharded run")
endif()

message(STATUS "grid shard OK: thread-invariant, concat-identical")
