"""Post-commit file hygiene shared by the epoch stores: the keyed
stores (stages/keyedstate.py — featstate, hllstate, histstate),
watermark, fpstore, embstore and entityreg (each epoch and each
compaction's new base dir).

Every store follows the versioned-open-table rule: workers write
uniquely-named files, the state JSON / manifest listing is the atomic
commit (state/manifest.py ``StateFile``), and superseded files are
deleted strictly AFTER it. Two classes of garbage remain without help:

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
import shutil
from typing import Iterable

from calendar_event_entity_extraction_ray.state.manifest import StateFile


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


def prune_orphans(state_dir: str, subdir: str, listed: Iterable[str]) -> None:
    """Delete the files under ``subdir`` that the commit does not list,
    then their emptied directories."""
    remove_files_and_prune_dirs(
        state_dir, orphan_files(state_dir, [subdir], listed))


def base_epoch(m: dict) -> str:
    """The epoch name a store's next compaction folds into."""
    return f"base{int(m.get('compaction_gen', 0)) + 1:04d}"


def commit_compaction(state: StateFile, store_dir: str, m: dict,
                      entry: dict, listed: Iterable[str],
                      **extra) -> dict:
    """The compaction commit of the LSM epoch stores (fpstore, embstore,
    entityreg): swap the state to the one ``base_epoch(m)`` ``entry``,
    carrying every other key (pinned params included) and keeping the
    folded epoch names so their re-runs stay no-ops. Then delete the
    superseded epoch dirs and the base dir's crashed-attempt orphans."""
    base = base_epoch(m)
    done = sorted(set(m.get("compacted_epochs", []))
                  | set(m["epochs"]) - {base})
    m2 = {**m, **extra, "compacted_epochs": done, "epochs": {base: entry},
          "compaction_gen": int(m.get("compaction_gen", 0)) + 1}
    state.save(store_dir, m2)  # the commit point
    for e in m["epochs"]:
        if e != base:
            shutil.rmtree(os.path.join(store_dir, f"epoch={e}"),
                          ignore_errors=True)
    prune_orphans(store_dir, f"epoch={base}", listed)
    return m2
