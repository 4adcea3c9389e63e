"""The command line of an op harness (``scripts/scale.py``,
``scripts/job.py``), built from its ops' signatures.

An op's keyword-only parameters are its flags: ``--<name>`` with the
parameter's default and its type (a bool default gives ``--x/--no-x``),
and a parameter without a default is a required string flag. The
op's docstring is its ``--help``.
"""

from __future__ import annotations

import argparse
import inspect


def params(fn) -> dict:
    """The op's keyword params and their defaults (its CLI)."""
    return {n: p.default for n, p in inspect.signature(fn).parameters.items()
            if p.kind is p.KEYWORD_ONLY}


def parser(doc: str, ops: dict, num_cpus) -> argparse.ArgumentParser:
    """One subcommand per op, each with ``--num-cpus`` (default
    ``num_cpus``) and its params' flags."""
    raw = argparse.RawDescriptionHelpFormatter
    ap = argparse.ArgumentParser(description=doc, formatter_class=raw)
    sub = ap.add_subparsers(dest="op", required=True, metavar="<op>")
    for name, fn in ops.items():
        op_doc = inspect.getdoc(fn)
        summary = " ".join(op_doc.split("\n\n")[0].split())
        p = sub.add_parser(name, help=summary, description=op_doc,
                           formatter_class=raw)
        p.add_argument("--num-cpus", type=int, default=num_cpus)
        for pname, default in params(fn).items():
            flag = "--" + pname.replace("_", "-")
            if default is inspect.Parameter.empty:
                p.add_argument(flag, required=True)
            elif isinstance(default, bool):
                p.add_argument(flag, action=argparse.BooleanOptionalAction,
                               default=default)
            else:
                p.add_argument(flag, type=type(default), default=default)
    return ap
