# Kill and resume through scprt_cli: `ingest` the first HEAD records of
# JSONL into a durability directory, then `ingest` the whole file with
# --resume. The resumed run must exit 0, print "resume: restored", and
# print the same report lines from quantum FROM_QUANTUM on as an
# uninterrupted run of the whole file. The directory must hold no
# MANIFEST-* or CURRENT file: the segment is the commit point.
#
#   cmake -DCLI=<scprt_cli> -DJSONL=<in.jsonl> -DWORK=<work dir>
#         -DHEAD=<records> -DFROM_QUANTUM=<q> "-DARGS=<flags joined by |>"
#         -P expect_cli_resume.cmake
cmake_minimum_required(VERSION 3.16)
string(REPLACE "|" ";" args "${ARGS}")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(dir "${WORK}/durable")

# The first HEAD records, one per line. CMake lists split on ';' and track
# '[' ... ']', so records holding either cannot be cut this way.
file(READ "${JSONL}" content)
if(content MATCHES "[];[]")
  message(FATAL_ERROR "${JSONL}: records hold ';', '[' or ']'")
endif()
string(REPLACE "\n" ";" records "${content}")
list(SUBLIST records 0 ${HEAD} head)
list(LENGTH head head_count)
if(NOT head_count EQUAL HEAD)
  message(FATAL_ERROR "${JSONL}: ${head_count} records, want ${HEAD}")
endif()
string(JOIN "\n" head_text ${head})
file(WRITE "${WORK}/head.jsonl" "${head_text}\n")

function(run_cli out_var)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "scprt_cli ${ARGN}: exit '${rc}'\n${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# The report lines of quanta >= FROM_QUANTUM: everything from the first
# "-- quantum N --" header with N >= FROM_QUANTUM up to the blank line
# before the run summary.
function(report_tail text out_var)
  string(REPLACE "\n" ";" lines "${text}")
  set(tail "")
  set(inside FALSE)
  foreach(line IN LISTS lines)
    if(line MATCHES "^-- quantum ([0-9]+) --$")
      if(CMAKE_MATCH_1 GREATER_EQUAL FROM_QUANTUM)
        set(inside TRUE)
      endif()
    endif()
    if(inside AND line STREQUAL "")
      break()
    endif()
    if(inside)
      string(APPEND tail "${line}\n")
    endif()
  endforeach()
  set(${out_var} "${tail}" PARENT_SCOPE)
endfunction()

run_cli(whole ingest "${JSONL}" ${args})
run_cli(first ingest "${WORK}/head.jsonl" ${args} --durability-dir "${dir}")
run_cli(resumed ingest "${JSONL}" ${args} --durability-dir "${dir}" --resume)

string(FIND "${resumed}" "resume: restored" at)
if(at EQUAL -1)
  message(FATAL_ERROR "resumed run lacks \"resume: restored\":\n${resumed}")
endif()
report_tail("${whole}" want)
report_tail("${resumed}" got)
if(want STREQUAL "")
  message(FATAL_ERROR "the uninterrupted run reports nothing from quantum "
                      "${FROM_QUANTUM} on:\n${whole}")
endif()
if(NOT got STREQUAL want)
  message(FATAL_ERROR "report lines from quantum ${FROM_QUANTUM} on differ\n"
                      "uninterrupted:\n${want}\nresumed:\n${got}")
endif()

file(GLOB stray "${dir}/MANIFEST-*" "${dir}/CURRENT")
if(stray)
  message(FATAL_ERROR "durability directory holds ${stray}")
endif()
