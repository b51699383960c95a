# Sharded serving pipeline, four acts (the fourth in trace builds only):
#
#   1. Split/merge: cut the labeling into 2 shard files with fsdl
#      shard_split, reassemble them (in the wrong order, deliberately) with
#      fsdl shard_merge, and require the result to be BYTE-IDENTICAL to the
#      original unsharded file. Also: a server started with a wrong
#      --shard-id/--shard-count assertion must refuse to come up.
#   2. Router under fire: 2 shards x 2 replicas behind fsdl_router; a
#      verified loadgen workload runs through the router while one replica
#      of one shard is SIGKILLed mid-run. Gates: >= 99% answered (loadgen
#      --min-success), ZERO exact-verification violations, and the router's
#      Prometheus dump shows fsdl_failovers_total > 0 plus live
#      fsdl_router_label_fetches_total / label_cache counters (the label
#      LRU is sized below n so fetches keep flowing all run).
#   3. The router's own HEALTH answers ready with the fleet's n.
#   4. (TRACE_ENABLED builds) Distributed tracing + fleet stats: a fresh
#      traced fleet serves fully-sampled load; fsdl_trace --stitch must
#      join the four processes' event logs into one client -> router ->
#      shard tree covering both fetch shards, and a FLEET_STATS probe must
#      return the merged exposition with both shards scraped.
function(run_checked)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

set(graph ${WORK_DIR}/shard_graph.edges)
set(scheme ${WORK_DIR}/shard_scheme.fsdl)
set(prefix ${WORK_DIR}/shard_scheme)
set(shard0 ${WORK_DIR}/shard_scheme.shard0of2)
set(shard1 ${WORK_DIR}/shard_scheme.shard1of2)
set(merged ${WORK_DIR}/shard_merged.fsdl)
set(router_prom ${WORK_DIR}/shard_router_metrics.prom)
set(router_log ${WORK_DIR}/shard_router.log)

# Every process binds port 0 and the script reads the kernel's choice from
# its startup line ("port=N"): a fixed port can be held by another test's
# client socket, since fixed ports sit inside the ephemeral range.
set(port_of "port_of() { sed -n 's/.*port=\\([0-9][0-9]*\\).*/\\1/p' \"$1\"; }")

run_checked(${FSDL_BIN} gen grid 8 8 ${graph})
run_checked(${FSDL_BIN} build ${graph} ${scheme} --eps 1.0)

# --- Act 1: lossless split/merge + the shard-identity assertion. ----------
run_checked(${FSDL_BIN} shard_split ${scheme} ${prefix} 2)
if(NOT EXISTS ${shard0} OR NOT EXISTS ${shard1})
  message(FATAL_ERROR "shard_split did not write both shard files")
endif()
# Merge in reversed order: reassembly must not depend on argv order.
run_checked(${FSDL_BIN} shard_merge ${merged} ${shard1} ${shard0})
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${scheme} ${merged}
                RESULT_VARIABLE cmp)
if(NOT cmp EQUAL 0)
  message(FATAL_ERROR
          "merged labeling is not byte-identical to the original")
endif()
# A server told it holds shard 1 while the file says shard 0 must not start.
execute_process(
  COMMAND ${SERVE_BIN} ${shard0} --port 0 --shard-id 1 --shard-count 2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "server accepted a wrong --shard-id assertion")
endif()
if(NOT err MATCHES "shard 0/2")
  message(FATAL_ERROR "shard-assertion error does not name the file's "
                      "partition:\n${err}")
endif()

# --- Act 2: 2 shards x 2 replicas, router in front, SIGKILL mid-run. ------
execute_process(
  COMMAND sh -ec "\
    ${port_of}; \
    '${SERVE_BIN}' '${shard0}' --port 0 --workers 2 \
        --shard-id 0 --shard-count 2 --drain-ms 500 \
        > '${WORK_DIR}/shard_s0r1.log' 2>&1 & \
    s0r1=$!; \
    '${SERVE_BIN}' '${shard0}' --port 0 --workers 2 \
        --shard-id 0 --shard-count 2 --drain-ms 500 \
        > '${WORK_DIR}/shard_s0r2.log' 2>&1 & \
    s0r2=$!; \
    '${SERVE_BIN}' '${shard1}' --port 0 --workers 2 \
        --shard-id 1 --shard-count 2 --drain-ms 500 \
        > '${WORK_DIR}/shard_s1r1.log' 2>&1 & \
    s1r1=$!; \
    '${SERVE_BIN}' '${shard1}' --port 0 --workers 2 \
        --shard-id 1 --shard-count 2 --drain-ms 500 \
        > '${WORK_DIR}/shard_s1r2.log' 2>&1 & \
    s1r2=$!; \
    router=; \
    trap 'kill $s0r1 $s0r2 $s1r1 $s1r2 $router 2>/dev/null || true' EXIT; \
    for k in $(seq 1 100); do \
      grep -q 'port=' '${WORK_DIR}/shard_s0r1.log' && \
      grep -q 'port=' '${WORK_DIR}/shard_s0r2.log' && \
      grep -q 'port=' '${WORK_DIR}/shard_s1r1.log' && \
      grep -q 'port=' '${WORK_DIR}/shard_s1r2.log' && break; \
      sleep 0.1; \
    done; \
    p_s0r1=$(port_of '${WORK_DIR}/shard_s0r1.log'); \
    p_s0r2=$(port_of '${WORK_DIR}/shard_s0r2.log'); \
    p_s1r1=$(port_of '${WORK_DIR}/shard_s1r1.log'); \
    p_s1r2=$(port_of '${WORK_DIR}/shard_s1r2.log'); \
    test -n \"$p_s0r1\" && test -n \"$p_s0r2\" && test -n \"$p_s1r1\" && \
      test -n \"$p_s1r2\" || { echo 'a shard server never came up'; exit 1; }; \
    '${ROUTER_BIN}' \
        --shard 127.0.0.1:$p_s0r1,127.0.0.1:$p_s0r2 \
        --shard 127.0.0.1:$p_s1r1,127.0.0.1:$p_s1r2 \
        --port 0 --workers 4 --label-cache 16 \
        --breaker-cooldown-ms 200 --drain-ms 500 \
        --metrics-dump '${router_prom}' --metrics-interval 0.3 \
        > '${router_log}' 2> '${router_log}.err' & \
    router=$!; \
    for k in $(seq 1 100); do \
      grep -q 'port=' '${router_log}' && break; sleep 0.1; \
    done; \
    grep -q 'port=' '${router_log}' || \
      { echo 'router never came up'; cat '${router_log}.err'; exit 1; }; \
    p_router=$(port_of '${router_log}'); \
    '${LOADGEN_BIN}' --port $p_router \
        --threads 4 --requests 700 --think-us 8000 --fault-pool 3 \
        --faults 2 --churn 0.2 --stats-every 0 --verify '${graph}' \
        --eps 1.0 --seed 13 --retries 5 --timeout-ms 2000 \
        --min-success 0.99 --allow-transport-errors & \
    lg=$!; \
    sleep 1.5; \
    kill -9 $s0r1; \
    echo '=== shard 0 replica 1 SIGKILLed ==='; \
    wait $lg; \
    '${SERVE_BIN}' --health 127.0.0.1:$p_router; \
    kill -INT $router; wait $router; \
    kill -INT $s0r2 $s1r1 $s1r2; wait $s0r2 $s1r1 $s1r2"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "router pipeline failed (${rc}):\n${out}\n${err}")
endif()
if(NOT out MATCHES "verified against exact baseline[^\n]* 0 violations")
  message(FATAL_ERROR "violations through the router:\n${out}")
endif()

# --- Act 3: the router's health + metrics tell the sharding story. --------
if(NOT out MATCHES "ready n=64 shards=2")
  message(FATAL_ERROR "router HEALTH missing fleet identity:\n${out}")
endif()
if(NOT EXISTS ${router_prom})
  message(FATAL_ERROR "no router metrics dump")
endif()
file(READ ${router_prom} prom_text)
if(NOT prom_text MATCHES "fsdl_failovers_total [1-9]")
  message(FATAL_ERROR
          "no failovers in the router dump after SIGKILL:\n${prom_text}")
endif()
if(NOT prom_text MATCHES "fsdl_router_label_fetches_total{result=\"ok\"} [1-9]")
  message(FATAL_ERROR "no successful label fetches recorded:\n${prom_text}")
endif()
if(NOT prom_text MATCHES "fsdl_router_label_cache_hits_total [1-9]")
  message(FATAL_ERROR "label cache recorded no hits:\n${prom_text}")
endif()
if(NOT prom_text MATCHES "fsdl_router_label_cache_misses_total [1-9]")
  message(FATAL_ERROR "label cache recorded no misses:\n${prom_text}")
endif()

# --- Act 4 (trace builds only): distributed tracing + fleet stats. --------
# A fresh 2-shard fleet (one replica each) and the router all write
# --trace-log event logs; every loadgen request carries a sampled trace
# context (--trace-sample 1) and the label cache is tiny so scatter-gather
# fetches hit both shards. Gates: fsdl_trace --stitch joins the three logs
# into at least one complete client -> router -> shard tree spanning both
# fetch shards, and a FLEET_STATS probe returns the merged exposition with
# both shards scraped.
if(NOT TRACE_ENABLED)
  message(STATUS "trace act skipped (FSDL_TRACE=OFF build)")
  return()
endif()

set(trace_client ${WORK_DIR}/shard_trace_client.jsonl)
set(trace_router ${WORK_DIR}/shard_trace_router.jsonl)
set(trace_shard0 ${WORK_DIR}/shard_trace_shard0.jsonl)
set(trace_shard1 ${WORK_DIR}/shard_trace_shard1.jsonl)
set(fleet_prom ${WORK_DIR}/shard_fleet_stats.prom)
file(REMOVE ${trace_client} ${trace_router} ${trace_shard0} ${trace_shard1}
     ${fleet_prom})

execute_process(
  COMMAND sh -ec "\
    ${port_of}; \
    '${SERVE_BIN}' '${shard0}' --port 0 --workers 2 \
        --shard-id 0 --shard-count 2 --drain-ms 500 \
        --trace-log '${trace_shard0}' \
        > '${WORK_DIR}/shard_t_s0.log' 2>&1 & \
    s0=$!; \
    '${SERVE_BIN}' '${shard1}' --port 0 --workers 2 \
        --shard-id 1 --shard-count 2 --drain-ms 500 \
        --trace-log '${trace_shard1}' \
        > '${WORK_DIR}/shard_t_s1.log' 2>&1 & \
    s1=$!; \
    router=; \
    trap 'kill $s0 $s1 $router 2>/dev/null || true' EXIT; \
    for k in $(seq 1 100); do \
      grep -q 'port=' '${WORK_DIR}/shard_t_s0.log' && \
      grep -q 'port=' '${WORK_DIR}/shard_t_s1.log' && break; \
      sleep 0.1; \
    done; \
    p_s0=$(port_of '${WORK_DIR}/shard_t_s0.log'); \
    p_s1=$(port_of '${WORK_DIR}/shard_t_s1.log'); \
    '${ROUTER_BIN}' \
        --shard 127.0.0.1:$p_s0 \
        --shard 127.0.0.1:$p_s1 \
        --port 0 --workers 2 --label-cache 4 \
        --drain-ms 500 --trace-log '${trace_router}' \
        > '${WORK_DIR}/shard_t_router.log' 2>&1 & \
    router=$!; \
    for k in $(seq 1 100); do \
      grep -q 'port=' '${WORK_DIR}/shard_t_router.log' && break; sleep 0.1; \
    done; \
    grep -q 'port=' '${WORK_DIR}/shard_t_router.log' || \
      { echo 'traced router never came up'; \
        cat '${WORK_DIR}/shard_t_router.log'; exit 1; }; \
    p_router=$(port_of '${WORK_DIR}/shard_t_router.log'); \
    '${LOADGEN_BIN}' --port $p_router \
        --threads 2 --requests 60 --think-us 1000 --fault-pool 3 \
        --faults 2 --stats-every 0 --n 64 --seed 29 --timeout-ms 2000 \
        --trace-sample 1 --trace-log '${trace_client}'; \
    '${SERVE_BIN}' --fleet-stats 127.0.0.1:$p_router \
        > '${fleet_prom}'; \
    kill -INT $router; wait $router; \
    kill -INT $s0 $s1; wait $s0 $s1"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "traced pipeline failed (${rc}):\n${out}\n${err}")
endif()

foreach(log ${trace_client} ${trace_router} ${trace_shard0} ${trace_shard1})
  if(NOT EXISTS ${log})
    message(FATAL_ERROR "trace log ${log} was never written")
  endif()
endforeach()

# Cross-process stitching is the gate: at least one trace must join spans
# from all four processes' logs and fan out to both shards.
run_checked(${TRACE_BIN} --stitch
            ${trace_client} ${trace_router} ${trace_shard0} ${trace_shard1}
            --expect-services client,router,shard --expect-fetch-shards 2)

# The merged FLEET_STATS exposition shows both shards scraped plus the
# router's own per-shard fetch-latency histograms.
file(READ ${fleet_prom} fleet_text)
foreach(shard_id 0 1)
  if(NOT fleet_text MATCHES "fsdl_fleet_scrape_ok{shard=\"${shard_id}\",replica=\"[^\"]*\"} 1")
    message(FATAL_ERROR
            "shard ${shard_id} missing from FLEET_STATS:\n${fleet_text}")
  endif()
  if(NOT fleet_text MATCHES "fsdl_label_store_bytes{shard=\"${shard_id}\",replica=\"[^\"]*\"} [1-9]")
    message(FATAL_ERROR
            "no label-store gauge for shard ${shard_id}:\n${fleet_text}")
  endif()
  if(NOT fleet_text MATCHES "fsdl_router_shard_fetch_latency_microseconds_count{shard=\"${shard_id}\"} [1-9]")
    message(FATAL_ERROR
            "no fetch-latency histogram for shard ${shard_id}:\n${fleet_text}")
  endif()
endforeach()
if(NOT fleet_text MATCHES "fsdl_fleet_request_latency_microseconds_count")
  message(FATAL_ERROR "no merged fleet histogram:\n${fleet_text}")
endif()
