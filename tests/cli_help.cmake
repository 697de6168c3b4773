# `sfi help` against what each verb's parser accepts, driven through the
# built binary. Help is rendered from the verb table and the option rows;
# this checks that what it prints is what the parser takes and what a verb
# runs with:
#  - `sfi help` lists every verb, `sfi help VERB` exits 0 for each, an
#    unknown verb exits 2, and a bare `sfi` prints the verb list and exits 2;
#  - every verb is probed with every option any verb's help lists. A listed
#    option must parse (the probe then fails on an unknown option after
#    it), and an unlisted one must be refused by name. No probe runs a
#    verb: a valued option is given `1`, and a bare one is followed by two
#    unknown options, so a value it wrongly takes is the first of them;
#  - each verb's help shows its own defaults (derate's --n; campaign's and
#    submit's scheduler windows), and `sfi derate` prints what
#    `sfi derate --n <its help's default>` prints.
#
#   cmake -DSFI=<build>/tools/sfi -P tests/cli_help.cmake
if(NOT EXISTS "${SFI}")
  message(FATAL_ERROR "no sfi binary at SFI='${SFI}'")
endif()

set(work "${CMAKE_CURRENT_BINARY_DIR}/cli_help_work")
file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")

# Runs `sfi ARGN` in the scratch directory, under a timeout; sets rc, out
# and err in the caller.
function(run_sfi)
  execute_process(COMMAND "${SFI}" ${ARGN}
                  WORKING_DIRECTORY "${work}" TIMEOUT 300
                  RESULT_VARIABLE r OUTPUT_VARIABLE o ERROR_VARIABLE e)
  set(rc "${r}" PARENT_SCOPE)
  set(out "${o}" PARENT_SCOPE)
  set(err "${e}" PARENT_SCOPE)
endfunction()

set(verbs inventory campaign worker report explain merge beam trace mix
          derate serve submit status watch shutdown top help)

run_sfi(help)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "`sfi help` exited ${rc}, want 0:\n${out}${err}")
endif()
set(verb_list "${out}")
string(REGEX MATCHALL "\n  [a-z]+ " listed "${verb_list}")
string(REGEX REPLACE "[\n ]" "" listed "${listed}")
if(NOT listed STREQUAL "${verbs}")
  message(FATAL_ERROR "`sfi help` lists '${listed}', want '${verbs}'")
endif()

run_sfi()
if(NOT rc EQUAL 2 OR NOT out STREQUAL verb_list)
  message(FATAL_ERROR "a bare `sfi` exited ${rc} (want 2) and printed:\n"
                      "${out}\nnot what `sfi help` prints:\n${verb_list}")
endif()
run_sfi(help nosuch)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "`sfi help nosuch` exited ${rc}, want 2:\n${out}${err}")
endif()

# Each verb's help: the options it lists (opts_<verb>), those that take a
# value (valued_<verb>), and its text (help_<verb>). `;` and brackets are
# replaced so that CMake's list splitting leaves the text alone.
set(universe)
foreach(verb IN LISTS verbs)
  run_sfi(help ${verb})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "`sfi help ${verb}` exited ${rc}:\n${out}${err}")
  endif()
  string(REGEX REPLACE "[][;]" "_" text "${out}")
  set(help_${verb} "\n${text}")
  set(opts_${verb})
  set(valued_${verb})
  string(REGEX MATCHALL "\n  --[a-z0-9-]+( [^ \n]+)?" heads "\n${text}")
  foreach(head IN LISTS heads)
    string(REGEX MATCH "--([a-z0-9-]+)( .+)?" _ "${head}")
    list(APPEND opts_${verb} "${CMAKE_MATCH_1}")
    list(APPEND universe "${CMAKE_MATCH_1}")
    if(NOT CMAKE_MATCH_2 STREQUAL "")
      list(APPEND valued_${verb} "${CMAKE_MATCH_1}")
    endif()
  endforeach()
endforeach()
list(REMOVE_DUPLICATES universe)

# Switches the docs and CI use: some verb's help must list each, or a help
# that dropped every switch would leave the probe below none to try.
foreach(switch IN ITEMS raw resume footprint stratify-unit wait
                        once json)
  list(FIND universe "${switch}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no verb's help lists --${switch}")
  endif()
endforeach()

# The default `sfi help VERB` shows for --OPTION, into `result`.
function(help_default verb option result)
  string(REGEX MATCH "\n  --${option} [^\n]* \\(default ([^)\n]*)\\)\n" _
         "${help_${verb}}\n")
  set(${result} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

foreach(probe IN ITEMS "derate n 2000" "campaign n 1000" "campaign threads 0"
                       "campaign shard-size 64" "campaign flush 32"
                       "submit threads 1" "submit shard-size 16"
                       "submit flush 8")
  separate_arguments(probe UNIX_COMMAND "${probe}")
  list(GET probe 0 verb)
  list(GET probe 1 option)
  list(GET probe 2 want)
  help_default(${verb} ${option} shown)
  if(NOT shown STREQUAL want)
    message(FATAL_ERROR "`sfi help ${verb}` shows --${option} default "
                        "'${shown}', want ${want}")
  endif()
endforeach()

foreach(verb IN LISTS verbs)
  foreach(option IN LISTS universe)
    list(FIND opts_${verb} "${option}" listed)
    list(FIND valued_${verb} "${option}" valued)
    if(listed EQUAL -1 OR NOT valued EQUAL -1)
      set(args ${verb} --${option} 1 --zz-unknown)
    else()
      set(args ${verb} --${option} --zz-unknown --zz-other)
    endif()
    run_sfi(${args})
    string(REPLACE ";" " " shown "${args}")
    if(listed EQUAL -1)
      set(want "sfi ${verb} does not take --${option}")
    else()
      set(want "unknown option --zz-unknown")
    endif()
    string(FIND "${err}" "${want}" at)
    if(NOT rc EQUAL 2 OR at EQUAL -1)
      message(FATAL_ERROR "`sfi ${shown}` exited ${rc}, want 2 and "
                          "'${want}':\n${out}${err}")
    endif()
  endforeach()
endforeach()

# What help shows is what the verb runs: derate's --n.
help_default(derate n derate_n)
run_sfi(derate)
set(implicit "${out}")
run_sfi(derate --n ${derate_n})
if(NOT rc EQUAL 0 OR NOT out STREQUAL implicit)
  message(FATAL_ERROR "`sfi derate --n ${derate_n}` (rc ${rc}) printed:\n"
                      "${out}\nand `sfi derate`:\n${implicit}")
endif()
file(REMOVE_RECURSE "${work}")
