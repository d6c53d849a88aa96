"""The performance ledger: one benchmark over the repository's layers.

``perfbench/run.py`` is the only entry point.  Each workload module
(:mod:`.eigen`, :mod:`.sweep`, :mod:`.churn`) sets itself up, measures for
the requested number of seconds, checks its outputs against references,
and returns a :class:`~.common.Outcome`.  Spans come from
:mod:`.tracer`, which wraps the program's public functions from outside;
nothing under ``src/`` is instrumented.
"""
