"""Golden values pinned in more than one place (tests and CI steps)."""

#: Filtered event-log sha256 of a ``testbed-small`` run (25 events):
#: scalar control, cold QPs, exact DES, single-threaded BLAS.  The public
#: harness API, the scenario path, the service and the CI benchmark-smoke
#: step must all reproduce it; re-pin only with a justified baseline change.
TB_SMALL_SHA = "a4ae4a9006785b8e0898af5df2bc1ff973350d82380b8d0b5be7c122018478fc"
