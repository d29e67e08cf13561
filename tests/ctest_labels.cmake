# Included by ctest after gtest_discover_tests has registered one test
# per gtest case (their names are in bigtiny_tests_TESTS).
#
#   ctest -L slow     golden re-simulation, farm, chaos and corpus suites
#   ctest -LE slow    everything else (the quick edit-compile loop)
#
# The farm suite times claim TTLs and heartbeats against the wall
# clock, so it runs alone rather than next to other test processes.
foreach(t IN LISTS bigtiny_tests_TESTS)
    if(t MATCHES "^HotpathFidelity\\.")
        set_tests_properties("${t}" PROPERTIES LABELS "slow;golden")
    elseif(t MATCHES "^Farm\\.")
        set_tests_properties("${t}" PROPERTIES LABELS "slow;farm"
                             RUN_SERIAL TRUE)
    elseif(t MATCHES "^Chaos")
        set_tests_properties("${t}" PROPERTIES LABELS "slow;chaos")
    elseif(t MATCHES "^Corpus\\.")
        set_tests_properties("${t}" PROPERTIES LABELS "slow;corpus")
    endif()
endforeach()
