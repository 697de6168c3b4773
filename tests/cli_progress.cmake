# The progress line of a store campaign counts committed records, driven
# through the built binary. A campaign interrupted by --max-new and then
# resumed ends on a line that reads N/N, whose six outcome tallies sum to N
# and equal the store's, and whose `hw` (the widest outcome interval) is
# taken at the campaign's --confidence.
#
#   cmake -DSFI=<build>/tools/sfi -P tests/cli_progress.cmake
if(NOT EXISTS "${SFI}")
  message(FATAL_ERROR "no sfi binary at SFI='${SFI}'")
endif()

set(work "${CMAKE_CURRENT_BINARY_DIR}/cli_progress_work")
file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")

set(outcomes Vanished Corrected Hang Checkstop BadArchState HarnessFatal)
set(n 4000)

# Runs an interrupted-then-resumed campaign at `confidence` and sets
# hw_<confidence> to the `hw` its last progress line shows.
function(resume_pair confidence)
  set(store "${work}/c${confidence}.sfr")
  set(common campaign --n ${n} --threads 2 --out ${store}
             --confidence ${confidence})
  execute_process(COMMAND "${SFI}" ${common} --max-new 1500 TIMEOUT 300
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "`sfi campaign --max-new 1500` exited ${rc}:\n"
                        "${out}${err}")
  endif()
  execute_process(COMMAND "${SFI}" ${common} --resume TIMEOUT 300
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "`sfi campaign --resume` exited ${rc}:\n${out}${err}")
  endif()

  # The line is redrawn in place with '\r'; the last one ends stderr.
  string(REPLACE "\r" "\n" err "${err}")
  string(STRIP "${err}" err)
  string(REGEX MATCH "[^\n]*$" last "${err}")
  string(REGEX MATCH
         "^\\[campaign\\] ([0-9]+)/([0-9]+) .* van ([0-9]+) corr ([0-9]+) hang ([0-9]+) cstop ([0-9]+) sdc ([0-9]+) hfatal ([0-9]+) hw ([0-9.]+)$"
         matched "${last}")
  if(NOT matched)
    message(FATAL_ERROR "last progress line is not a tally: '${last}'")
  endif()
  set(tallies ${CMAKE_MATCH_3} ${CMAKE_MATCH_4} ${CMAKE_MATCH_5}
              ${CMAKE_MATCH_6} ${CMAKE_MATCH_7} ${CMAKE_MATCH_8})
  set(hw ${CMAKE_MATCH_9})
  if(NOT CMAKE_MATCH_1 EQUAL n OR NOT CMAKE_MATCH_2 EQUAL n)
    message(FATAL_ERROR "last progress line does not read ${n}/${n}: "
                        "'${last}'")
  endif()
  set(sum 0)
  foreach(t IN LISTS tallies)
    math(EXPR sum "${sum} + ${t}")
  endforeach()
  if(NOT sum EQUAL n)
    message(FATAL_ERROR "the tallies of '${last}' sum to ${sum}, not ${n}")
  endif()

  # Each tally is the store's count of its outcome.
  execute_process(COMMAND "${SFI}" report --from ${store} TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE report)
  foreach(i RANGE 5)
    list(GET outcomes ${i} outcome)
    list(GET tallies ${i} tally)
    string(REGEX MATCH "\n  ${outcome} +([0-9]+) " row "${report}")
    if(NOT row OR NOT CMAKE_MATCH_1 EQUAL tally)
      message(FATAL_ERROR "'${last}' counts ${tally} ${outcome}, the store "
                          "'${CMAKE_MATCH_1}':\n${report}")
    endif()
  endforeach()
  set(hw_${confidence} ${hw} PARENT_SCOPE)
endfunction()

resume_pair(0.5)
resume_pair(0.95)
if(NOT hw_0.5 LESS hw_0.95)
  message(FATAL_ERROR "hw at --confidence 0.5 (${hw_0.5}) is not below hw "
                      "at 0.95 (${hw_0.95})")
endif()
file(REMOVE_RECURSE "${work}")
