"""Handlers and shared kit behind ``python -m repro.evaluation``.

:mod:`repro.evaluation.__main__` holds the command table (one subparser
per command) and the single error path; it imports one of the handler
modules here only when its command is dispatched:

* :mod:`paper` — table1/table2/table3/fig3a/fig3b/all and ``bench``;
* :mod:`live` — commands that execute workloads: report, timeline,
  profile, calibrate, journal, watch, slo;
* :mod:`journals` — commands that read one or two run journals: replay,
  explain, whatif;
* :mod:`fleet` — commands over artifacts of many runs: diff, trend,
  corpus, doctor, analytics.

They share one copy each of: the live-run loop, the journal loader and
the ``workload:engine`` reference parser (:mod:`runs`); the text-or-JSON
switch and the JSON / Chrome-trace / journal writers (:mod:`present`);
the run heading and the report/timeline/watch views that live commands
and ``replay`` both print (:mod:`views`).
"""


class CLIError(Exception):
    """Bad input detected by a handler: ``main`` prints ``error: <message>``
    on stderr and exits with ``code`` (2 = bad input, the only one in use)."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code
