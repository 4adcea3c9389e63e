"""Op families of ``scripts/job.py``.

An op is ``def <op>(*, <param>[=<default>], ...) -> dict``: its keyword
params are its CLI (a param without a default is a required flag), its
docstring is its help, and the dict it returns is the job's one output
record. A read op shows its table on stderr and returns a summary.
"""
