# Runs examples/fleet_simulation with --trace and checks what it wrote:
# the trace parses as JSON, it holds instrumentation events (records other
# than "ph":"M" metadata) exactly when the build traces, and the run
# manifest's build.trace_enabled agrees with the build.
#
#   cmake -DFLEET_SIMULATION=<exe> -DTRACE_FILE=<out.json>
#         -DTRACE_ENABLED=ON|OFF -P check_trace.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

execute_process(
  COMMAND "${FLEET_SIMULATION}" --users 2 --slots 50 --threads 2
          --trace "${TRACE_FILE}"
  RESULT_VARIABLE status OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "fleet_simulation exited with ${status}:\n${output}")
endif()

file(READ "${TRACE_FILE}" trace)
string(JSON events ERROR_VARIABLE error LENGTH "${trace}" traceEvents)
if(error)
  message(FATAL_ERROR "${TRACE_FILE} is not a Chrome trace: ${error}")
endif()
# The constant metadata records come first, so the scan stops early when
# the build traces.
set(instrumented OFF)
if(events GREATER 0)
  math(EXPR last "${events} - 1")
  foreach(i RANGE ${last})
    string(JSON phase ERROR_VARIABLE no_phase
           GET "${trace}" traceEvents ${i} ph)
    if(NOT phase STREQUAL "M")
      set(instrumented ON)
      break()
    endif()
  endforeach()
endif()
if(TRACE_ENABLED)
  set(expected ON)
else()
  set(expected OFF)
endif()
if(NOT instrumented STREQUAL expected)
  message(FATAL_ERROR "ORIGIN_TRACE=${expected}, but instrumentation events "
                      "present: ${instrumented}")
endif()

file(READ "${TRACE_FILE}.manifest.json" manifest)
string(JSON manifest_enabled GET "${manifest}" build trace_enabled)
if(NOT manifest_enabled STREQUAL expected)
  message(FATAL_ERROR "manifest build.trace_enabled is ${manifest_enabled}, "
                      "the build's ORIGIN_TRACE is ${expected}")
endif()
message(STATUS "trace ok: ${events} events, instrumented ${instrumented}, "
               "manifest consistent")
