"""Post-commit file hygiene shared by the presharded state stores
(stages/keyedstate.py — featstate, hllstate, histstate — and
watermark).

Every store follows the versioned-open-table rule: workers write
uniquely-named files, the state JSON / manifest listing is the atomic
commit, and superseded files are deleted strictly AFTER it. Two classes
of garbage remain without help:

- the superseded files' now-empty ``<kind>.epoch=<e>/part=<k>``
  directories (one tree per epoch, forever);
- orphan files in the CURRENT epoch's directories left by an attempt
  that crashed before its commit (never listed, never read — but never
  deleted either, since the re-run writes fresh unique names).

Both are disk hygiene only: reads go through the listing. Callers
invoke these AFTER the commit point, so a crash inside cleanup changes
nothing about what a reader sees.
"""

from __future__ import annotations

import os
from typing import Iterable


def remove_files_and_prune_dirs(state_dir: str,
                                rels: Iterable[str]) -> None:
    """Remove state-dir-relative files, then prune each one's emptied
    parent directories up to (not including) state_dir. Errors are
    swallowed — cleanup must never fail a committed epoch."""
    stop = os.path.normpath(state_dir)
    for rel in rels:
        p = os.path.join(state_dir, rel)
        try:
            os.remove(p)
        except OSError:
            continue
        d = os.path.dirname(p)
        while os.path.normpath(d) != stop:
            try:
                os.rmdir(d)
            except OSError:
                break
            d = os.path.dirname(d)


def orphan_files(state_dir: str, subdirs: Iterable[str],
                 listed: Iterable[str]) -> list:
    """State-dir-relative paths of files under ``subdirs`` that the
    commit does NOT list — crashed-attempt leftovers, safe to delete
    post-commit."""
    keep = set(listed)
    out = []
    for sub in subdirs:
        root = os.path.join(state_dir, sub)
        if not os.path.isdir(root):
            continue
        for dirpath, _dirs, files in os.walk(root):
            for f in files:
                rel = os.path.relpath(os.path.join(dirpath, f), state_dir)
                if rel not in keep:
                    out.append(rel)
    return out
