# High-availability pipeline, two acts:
#
#   1. Kill-restart: two replicas serve one verified workload through the
#      replica-aware client. One replica is SIGKILLed mid-run and later
#      restarted on the same port. The run must finish with ZERO
#      verification violations and >= 99% of requests answered (loadgen's
#      --min-success gate), the clients must report failovers, and the
#      client-side Prometheus dump must show fsdl_failovers_total > 0.
#   2. Hot reload: SIGHUP swaps the label file under verified load with
#      zero wrong answers; a CRC-corrupted file is rejected while the old
#      labels keep serving (epoch unchanged, crc_failed counter bumped);
#      the --health probe reports the post-reload epoch.
function(run_checked)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

set(graph ${WORK_DIR}/ha_graph.edges)
set(scheme ${WORK_DIR}/ha_scheme.fsdl)
set(live_scheme ${WORK_DIR}/ha_live.fsdl)
set(r1log ${WORK_DIR}/ha_replica1.log)
set(r1blog ${WORK_DIR}/ha_replica1_restarted.log)
set(r2log ${WORK_DIR}/ha_replica2.log)
set(client_prom ${WORK_DIR}/ha_client_metrics.prom)
set(reload_log ${WORK_DIR}/ha_reload_server.log)
set(server_prom ${WORK_DIR}/ha_server_metrics.prom)

# Both replicas bind port 0 and the script reads the kernel's choice from
# each startup line ("port=N"): a fixed port can be held by another test's
# client socket, since fixed ports sit inside the ephemeral range. The
# killed replica must come back on the SAME address for the restart to
# count as recovery, so it rebinds the port of its first start
# (SO_REUSEADDR makes the rebind safe).
set(port_of "port_of() { sed -n 's/.*port=\\([0-9][0-9]*\\).*/\\1/p' \"$1\"; }")

run_checked(${FSDL_BIN} gen grid 8 8 ${graph})
run_checked(${FSDL_BIN} build ${graph} ${scheme} --eps 1.0)

# --- Act 1: SIGKILL one of two replicas mid-run, then restart it. ---------
execute_process(
  COMMAND sh -ec "\
    ${port_of}; \
    '${SERVE_BIN}' '${scheme}' --port 0 --workers 2 --drain-ms 500 \
        > '${r1log}' 2> '${r1log}.err' & \
    r1=$!; \
    '${SERVE_BIN}' '${scheme}' --port 0 --workers 2 --drain-ms 500 \
        > '${r2log}' 2> '${r2log}.err' & \
    r2=$!; \
    r1b=; \
    trap 'kill $r1 $r2 $r1b 2>/dev/null || true' EXIT; \
    for k in $(seq 1 100); do \
      grep -q 'port=' '${r1log}' && grep -q 'port=' '${r2log}' && break; \
      sleep 0.1; \
    done; \
    port1=$(port_of '${r1log}'); \
    port2=$(port_of '${r2log}'); \
    test -n \"$port1\" && test -n \"$port2\" || \
      { echo 'a replica never came up'; exit 1; }; \
    '${LOADGEN_BIN}' --endpoints 127.0.0.1:$port1,127.0.0.1:$port2 \
        --threads 4 --requests 700 --think-us 8000 --fault-pool 3 \
        --faults 2 --churn 0.2 --stats-every 0 --verify '${graph}' \
        --eps 1.0 --seed 11 --retries 5 --timeout-ms 2000 \
        --min-success 0.99 --metrics-dump '${client_prom}' \
        --allow-transport-errors & \
    lg=$!; \
    sleep 1.5; \
    kill -9 $r1; \
    echo '=== replica 1 SIGKILLed ==='; \
    sleep 1.0; \
    '${SERVE_BIN}' '${scheme}' --port $port1 --workers 2 --drain-ms 500 \
        > '${r1blog}' 2> '${r1blog}.err' & \
    r1b=$!; \
    for k in $(seq 1 100); do \
      '${SERVE_BIN}' --health 127.0.0.1:$port1 >/dev/null 2>&1 && break; \
      sleep 0.1; \
    done; \
    echo '=== replica 1 restarted ==='; \
    '${SERVE_BIN}' --health 127.0.0.1:$port1; \
    wait $lg; \
    kill -INT $r2 $r1b; \
    wait $r2 $r1b"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "kill-restart pipeline failed (${rc}):\n${out}\n${err}")
endif()
if(NOT out MATCHES "verified against exact baseline[^\n]* 0 violations")
  message(FATAL_ERROR "violations during kill-restart:\n${out}")
endif()
if(NOT out MATCHES "ha: failovers=[1-9]")
  message(FATAL_ERROR "clients reported no failovers after SIGKILL:\n${out}")
endif()
if(NOT out MATCHES "ready epoch=1")
  message(FATAL_ERROR "restarted replica never became ready:\n${out}")
endif()
if(NOT EXISTS ${client_prom})
  message(FATAL_ERROR "no client-side metrics dump")
endif()
file(READ ${client_prom} client_prom_text)
if(NOT client_prom_text MATCHES "fsdl_failovers_total [1-9]")
  message(FATAL_ERROR "failovers missing from client Prometheus dump:\n${client_prom_text}")
endif()

# --- Act 2: SIGHUP hot reload under load; corrupt reload rejected. --------
execute_process(
  COMMAND sh -ec "\
    cp '${scheme}' '${live_scheme}'; \
    '${SERVE_BIN}' '${live_scheme}' --port 0 --workers 4 --drain-ms 500 \
        --metrics-dump '${server_prom}' --metrics-interval 0.3 \
        > '${reload_log}' 2> '${reload_log}.err' & \
    spid=$!; \
    trap 'kill $spid 2>/dev/null || true' EXIT; \
    for k in $(seq 1 100); do \
      grep -q 'port=' '${reload_log}' && break; sleep 0.1; \
    done; \
    sport=$(sed -n 's/.*port=\\([0-9][0-9]*\\).*/\\1/p' '${reload_log}'); \
    test -n \"$sport\" || { echo 'no server port'; exit 1; }; \
    '${LOADGEN_BIN}' --port $sport --threads 4 --requests 700 \
        --think-us 4000 --fault-pool 3 --faults 2 --churn 0.2 \
        --stats-every 0 --verify '${graph}' --eps 1.0 --seed 12 \
        --retries 5 --timeout-ms 2000 & \
    lg=$!; \
    sleep 0.8; \
    kill -HUP $spid; \
    echo '=== good reload signaled ==='; \
    sleep 0.8; \
    b=$(od -An -tu1 -j25 -N1 '${live_scheme}' | tr -d ' '); \
    printf \"$(printf '\\\\%03o' $(( (b + 1) % 256 )))\" | \
      dd of='${live_scheme}' bs=1 seek=25 count=1 conv=notrunc 2>/dev/null; \
    kill -HUP $spid; \
    echo '=== corrupt reload signaled ==='; \
    sleep 0.8; \
    '${SERVE_BIN}' --health 127.0.0.1:$sport; \
    wait $lg; \
    kill -INT $spid; \
    wait $spid"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hot-reload pipeline failed (${rc}):\n${out}\n${err}")
endif()
# Zero wrong answers across both swaps, and the strict loadgen run (no
# tolerated transport errors) proves queries never even hiccuped.
if(NOT out MATCHES "verified against exact baseline[^\n]* 0 violations")
  message(FATAL_ERROR "violations during hot reload:\n${out}")
endif()
if(NOT out MATCHES "transport_errors=0")
  message(FATAL_ERROR "reload cost requests:\n${out}")
endif()
# The good reload bumped the epoch; the corrupt one did not (2, not 3).
if(NOT out MATCHES "ready epoch=2")
  message(FATAL_ERROR "server not on epoch 2 after good+corrupt reload:\n${out}")
endif()
file(READ ${reload_log} srv_out)
if(NOT srv_out MATCHES "reloaded .* epoch=2")
  message(FATAL_ERROR "good reload not logged:\n${srv_out}")
endif()
file(READ ${reload_log}.err srv_err)
if(NOT srv_err MATCHES "reload failed .*still serving epoch=2")
  message(FATAL_ERROR "corrupt reload not rejected in place:\n${srv_err}")
endif()
file(READ ${server_prom} prom_text)
if(NOT prom_text MATCHES "fsdl_label_reloads_total{result=\"ok\"} 1")
  message(FATAL_ERROR "ok reload missing from Prometheus:\n${prom_text}")
endif()
if(NOT prom_text MATCHES "fsdl_label_reloads_total{result=\"crc_failed\"} 1")
  message(FATAL_ERROR "crc_failed reload missing from Prometheus:\n${prom_text}")
endif()
