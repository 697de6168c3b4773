# Build-time half of the lane engine's proof (DESIGN.md §16): AccessRecorder
# sees every state read only because no unit under src/core/ reaches the raw
# words of a StateVector. Fails if any file there calls words() or
# words_mut() as a member (`.words()`, `->words_mut()`); a plain `words()`
# match would also hit EccMemory::num_words().
#
#   cmake -DCORE_DIR=<repo>/src/core -P tests/core_never_reads_words.cmake
file(GLOB_RECURSE sources "${CORE_DIR}/*")
if(NOT sources)
  message(FATAL_ERROR "no sources under CORE_DIR='${CORE_DIR}'")
endif()
set(hits "")
foreach(source IN LISTS sources)
  file(STRINGS "${source}" lines REGEX "(\\.|->)words(_mut)?\\(\\)")
  if(lines)
    string(APPEND hits "\n  ${source}")
  endif()
endforeach()
if(hits)
  message(FATAL_ERROR "src/core/ calls StateVector words()/words_mut():${hits}")
endif()
