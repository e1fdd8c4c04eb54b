# Regenerates the committed golden outputs in WORK_DIR and compares each one
# byte for byte with its copy under SOURCE_DIR/results/, failing on the first
# file that differs. Invoked by the goldens-check target (bench/CMakeLists.txt)
# with -DBENCH_DIR=... -DEXAMPLES_DIR=... -DSOURCE_DIR=... -DWORK_DIR=...
#
# The benches write through harness::results_dir(), which is relative to the
# working directory, so running them in WORK_DIR leaves results/ untouched.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/results")

function(produce)
  cmake_parse_arguments(P "" "STDOUT" "COMMAND" ${ARGN})
  if(P_STDOUT)
    set(out OUTPUT_FILE "${WORK_DIR}/results/${P_STDOUT}")
  else()
    set(out OUTPUT_QUIET)
  endif()
  list(JOIN P_COMMAND " " shown)
  message(STATUS "goldens-check: ${shown}")
  execute_process(COMMAND ${P_COMMAND}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    ${out}
    ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "goldens-check: '${shown}' failed (${rc})")
  endif()
endfunction()

produce(COMMAND "${BENCH_DIR}/bench_fig8a_latency"
  --json_out=results/fig8a_latency.json)
produce(COMMAND "${BENCH_DIR}/bench_fig8b_throughput"
  --json_out=results/fig8b_throughput.json)
produce(COMMAND "${BENCH_DIR}/bench_service_traffic"
  --json_out=results/bench_service_traffic.json)
produce(COMMAND "${BENCH_DIR}/bench_fig3_putget")
produce(COMMAND "${BENCH_DIR}/bench_table1_params")
produce(COMMAND "${BENCH_DIR}/bench_fig4_contention")
produce(COMMAND "${BENCH_DIR}/bench_whatif_scaling")
produce(COMMAND "${BENCH_DIR}/bench_fault_overhead")
produce(COMMAND "${BENCH_DIR}/bench_ablation_design")
produce(COMMAND "${BENCH_DIR}/bench_extension_collectives")
produce(COMMAND "${EXAMPLES_DIR}/trace_timeline"
  STDOUT trace_timeline.stdout)
produce(COMMAND "${EXAMPLES_DIR}/topology_explorer"
  STDOUT topology_explorer.stdout)
file(RENAME "${WORK_DIR}/trace_timeline.trace.json"
  "${WORK_DIR}/results/trace_timeline.trace.json")

foreach(golden
    fig8a_latency.json
    fig8b_throughput.json
    bench_service_traffic.json
    fig3_putget.csv
    table1_params.csv
    fig4_contention.csv
    whatif_scaling.csv
    whatif_topology.json
    fault_overhead.csv
    trace_timeline.stdout
    trace_timeline.trace.json
    topology_explorer.stdout
    ablation_design.csv
    extension_reduce.csv
    extension_ossag.csv)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
      "${WORK_DIR}/results/${golden}" "${SOURCE_DIR}/results/${golden}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "goldens-check: ${golden} differs from the committed "
                        "results/${golden} (new copy in ${WORK_DIR}/results)")
  endif()
endforeach()
message(STATUS "goldens-check: all goldens byte-identical")
