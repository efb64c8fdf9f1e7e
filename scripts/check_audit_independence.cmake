# Fails unless every file under src/wormnet/audit/ includes only headers of
# audit/, routing/, topology/ and the standard library.  The auditor is the
# trusted base that re-checks the checkers' certificates (DESIGN 3.10), so
# it may share no code with cdg/, cwg/, core/, graph/, analysis/, sim/,
# exp/, reconfig/ or anything else outside those three directories.
#
#   cmake -DAUDIT_DIR=src/wormnet/audit -P scripts/check_audit_independence.cmake
#
# ctest runs it as `audit_independence` (label `audit`).
if(NOT AUDIT_DIR)
  message(FATAL_ERROR "pass -DAUDIT_DIR=<path to src/wormnet/audit>")
endif()
file(GLOB_RECURSE files "${AUDIT_DIR}/*")
if(NOT files)
  message(FATAL_ERROR "no files under ${AUDIT_DIR}")
endif()

set(violations "")
foreach(path IN LISTS files)
  file(STRINGS "${path}" lines REGEX "^[ \t]*#[ \t]*include")
  foreach(line IN LISTS lines)
    # A failed MATCHES clears CMAKE_MATCH_1, so keep the header name first.
    if(line MATCHES "#[ \t]*include[ \t]*\"([^\"]*)\"")
      set(header "${CMAKE_MATCH_1}")
      if(NOT header MATCHES "^wormnet/(audit|routing|topology)/")
        list(APPEND violations "${path}: \"${header}\"")
      endif()
    elseif(line MATCHES "#[ \t]*include[ \t]*<([^>]*)>")
      set(header "${CMAKE_MATCH_1}")
      # Standard headers are bare lower-case names: <vector>, <cstdint>.
      if(NOT header MATCHES "^[a-z_]+$")
        list(APPEND violations "${path}: <${header}>")
      endif()
    else()
      list(APPEND violations "${path}: unrecognised include: ${line}")
    endif()
  endforeach()
endforeach()

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR "audit/ includes outside audit/, routing/, topology/ "
                      "and the standard library:\n  ${report}")
endif()
list(LENGTH files count)
message(STATUS "audit_independence: ${count} files include only audit/, "
               "routing/, topology/ and standard headers")
