# The command line's verb-option table (serve::spec_options() rows and the
# CLI's own options each name the verbs that read them), driven through the
# built binary: a verb given an option it does not read exits 2 and names
# both, `sfi campaign --trace-spans` without a store is refused, and
# `sfi trace --raw` traces the fault with every checker masked.
#
#   cmake -DSFI=<build>/tools/sfi -P tests/cli_verb_options.cmake
if(NOT EXISTS "${SFI}")
  message(FATAL_ERROR "no sfi binary at SFI='${SFI}'")
endif()

# Each refusal: the verb, the option it does not read, and a value when
# the option takes one on the verbs that read it.
set(refusals
  "mix --n 5"
  "inventory --seed 3"
  "report --raw"
  "explain --raw"
  "merge --engine lanes"
  "beam --sticky 3"
  "beam --engine scalar"
  "campaign --half-width 0.001"
  "campaign --tenant bob"
  "worker --threads 2")
foreach(refusal IN LISTS refusals)
  separate_arguments(args UNIX_COMMAND "${refusal}")
  list(GET args 0 verb)
  list(GET args 1 option)
  execute_process(COMMAND "${SFI}" ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "`sfi ${refusal}` exited ${rc}, want 2:\n${out}${err}")
  endif()
  string(FIND "${err}" "sfi ${verb} does not take ${option}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "`sfi ${refusal}` did not name the verb and ${option}:"
                        "\n${err}")
  endif()
endforeach()

# `sfi trace` has two modes under one verb: stitching a store reads only
# --out, and tracing one fault (--latch) reads everything else. Each mode
# refuses a given option only the other reads, exiting 2 and naming it.
foreach(mixed IN ITEMS "trace a.sfr --latch fxu.gpr1:3"
                       "trace --latch fxu.gpr1:3 --out x.json")
  separate_arguments(args UNIX_COMMAND "${mixed}")
  list(GET args -2 option)
  execute_process(COMMAND "${SFI}" ${args} TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "does not take ${option}" at)
  if(NOT rc EQUAL 2 OR at EQUAL -1)
    message(FATAL_ERROR "`sfi ${mixed}` exited ${rc}, want 2 naming "
                        "${option}:\n${out}${err}")
  endif()
endforeach()

# `sfi campaign` has three modes under one verb: in memory (no --out), into
# a store in process (--out), and on a farm (--workers or --farm, with
# --out). Each refuses a given option it does not read, exiting 2 and naming
# the mode and the option: only a farm supervises workers, a farm's workers
# run one thread and commit each record, and only a store has windows.
set(mode_store "${CMAKE_CURRENT_BINARY_DIR}/cli_verb_options_mode.sfr")
set(mode_hosts "${CMAKE_CURRENT_BINARY_DIR}/cli_verb_options_hosts.txt")
file(WRITE "${mode_hosts}" "localhost 2\n")
set(mode_refusals
  "--workers|--max-new|--workers 2 --out ${mode_store} --max-new 10"
  "--workers|--flush|--workers 2 --out ${mode_store} --flush 4"
  "--workers|--threads|--workers 2 --out ${mode_store} --threads 2"
  "--farm|--flush|--farm ${mode_hosts} --out ${mode_store} --flush 4"
  "--out without --workers|--watchdog|--out ${mode_store} --watchdog 5"
  "--out without --workers|--strikes|--out ${mode_store} --strikes 2"
  "--out without --workers|--keep-shards|--out ${mode_store} --keep-shards"
  "--out without --workers|--sabotage-crash|--out ${mode_store} --sabotage-crash 3"
  "without --out|--shard-size|--shard-size 8"
  "without --out|--flush|--flush 4"
  "without --out|--max-new|--max-new 10"
  "without --out|--postmortem|--postmortem ${mode_store}.jsonl")
foreach(refusal IN LISTS mode_refusals)
  string(REPLACE "|" ";" parts "${refusal}")
  list(GET parts 0 mode)
  list(GET parts 1 option)
  list(GET parts 2 given)
  separate_arguments(args UNIX_COMMAND "campaign --n 20 ${given}")
  execute_process(COMMAND "${SFI}" ${args} TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "sfi campaign ${mode} does not take ${option}" at)
  if(NOT rc EQUAL 2 OR at EQUAL -1)
    message(FATAL_ERROR "`sfi campaign --n 20 ${given}` exited ${rc}, want 2 "
                        "naming '${mode}' and ${option}:\n${out}${err}")
  endif()
endforeach()
file(REMOVE "${mode_hosts}")

# A campaign with no store has nowhere to keep its spans: --trace-spans
# without --out exits 2, naming --out and pointing at --chrome-trace.
execute_process(COMMAND "${SFI}" campaign --n 100 --trace-spans
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
          "`sfi campaign --n 100 --trace-spans` exited ${rc}, want 2:\n"
          "${out}${err}")
endif()
foreach(named IN ITEMS "--out" "--chrome-trace")
  string(FIND "${err}" "${named}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "`sfi campaign --trace-spans` without --out did not name "
            "${named}:\n${err}")
  endif()
endforeach()

# Accepted: each parses and then fails at run time (exit 1) on a store or
# daemon that is not there. `explain --json` names a file; submit takes
# every campaign option.
set(missing "${CMAKE_CURRENT_BINARY_DIR}/cli_verb_options_missing")
set(accepted
  "explain --from ${missing}.sfr --json ${missing}.json"
  "report --from ${missing}.sfr --confidence 0.9"
  "trace ${missing}.sfr --out ${missing}.json"
  "submit --connect unix:${missing}.sock --tenant t --half-width 0.1 --stratify-unit --sticky 3 --wait")
foreach(accept IN LISTS accepted)
  separate_arguments(args UNIX_COMMAND "${accept}")
  execute_process(COMMAND "${SFI}" ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "`sfi ${accept}` exited ${rc}, want 1:\n${out}${err}")
  endif()
endforeach()

# --raw masks the checkers the traced fault would otherwise trip.
set(trace_args trace --latch fxu.gpr1:3 --cycle 100)
execute_process(COMMAND "${SFI}" ${trace_args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE checked)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "`sfi trace` exited ${rc}")
endif()
execute_process(COMMAND "${SFI}" ${trace_args} --raw
                RESULT_VARIABLE rc OUTPUT_VARIABLE raw)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "`sfi trace --raw` exited ${rc}")
endif()
if(checked STREQUAL raw)
  message(FATAL_ERROR "`sfi trace --raw` printed what `sfi trace` does:\n${raw}")
endif()
string(FIND "${checked}" "checker [FXU]" at)
if(at EQUAL -1)
  message(FATAL_ERROR "`sfi trace` shows no FXU checker:\n${checked}")
endif()
string(FIND "${raw}" "checker [" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "`sfi trace --raw` still shows a checker:\n${raw}")
endif()

# A verb takes only the positional arguments its row names: merge any
# number of input stores, trace at most one store to stitch, the rest none.
# Each refusal exits 2 and names the stray argument; merge's inputs parse
# and then fail at run time on stores that are not there.
foreach(stray IN ITEMS "campaign --n 20 --threads 1 10000" "mix stray"
                       "inventory x" "trace a.sfr b.sfr" "help mix x")
  separate_arguments(args UNIX_COMMAND "${stray}")
  list(GET args -1 arg)
  execute_process(COMMAND "${SFI}" ${args} TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "stray argument '${arg}'" at)
  if(NOT rc EQUAL 2 OR at EQUAL -1)
    message(FATAL_ERROR "`sfi ${stray}` exited ${rc}, want 2 naming "
                        "'${arg}':\n${out}${err}")
  endif()
endforeach()
execute_process(COMMAND "${SFI}" merge --out ${missing}_merged.sfr
                        ${missing}.sfr ${missing}_2.sfr TIMEOUT 60
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "`sfi merge` of two missing stores exited ${rc}, "
                      "want 1:\n${out}${err}")
endif()

# A latch bit past the latch's width is refused, however wide the number.
foreach(latch IN ITEMS fxu.gpr1:64 fxu.gpr1:4294967296)
  execute_process(COMMAND "${SFI}" trace --latch ${latch} TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "has 64 bits" at)
  if(NOT rc EQUAL 2 OR at EQUAL -1)
    message(FATAL_ERROR "`sfi trace --latch ${latch}` exited ${rc}, want 2 "
                        "and the latch's width:\n${out}${err}")
  endif()
endforeach()

# `sfi top --interval` takes only a finite period above 0, and says so
# before it connects; a good period gets as far as the connect, which
# nothing answers. The timeout turns a poll loop into a failure.
foreach(interval IN ITEMS 0 -1 nan inf 0.5)
  execute_process(COMMAND "${SFI}" top --http tcp:127.0.0.1:1
                          --interval ${interval} TIMEOUT 30
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "--interval" at)
  if(interval STREQUAL "0.5")
    if(NOT rc EQUAL 1 OR NOT at EQUAL -1)
      message(FATAL_ERROR "`sfi top --interval 0.5` exited ${rc}, want 1 "
                          "on the connect:\n${out}${err}")
    endif()
  elseif(NOT rc EQUAL 2 OR at EQUAL -1)
    message(FATAL_ERROR "`sfi top --interval ${interval}` exited ${rc}, want "
                        "2 naming --interval:\n${out}${err}")
  endif()
endforeach()
