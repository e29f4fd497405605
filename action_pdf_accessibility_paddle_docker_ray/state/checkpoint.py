"""One checkpoint protocol for every resumable runner.

A resumable run writes its output as UNITS: named directories under its
out dir (``chunk-00003``, ``bucket-5``, ``_state``, ``iter-2``, ``ranks``).
The protocol has three parts:

- **Run key**: a digest of every input file's (name, size, ``mtime_ns``),
  of every output-changing parameter as canonical JSON (dicts such as
  ``thresholds`` and the unit split ``chunk_files``/``n_buckets``
  included) and of ``ENGINE_VERSION``.
- **Unit publish**: the unit is written into ``<unit>.tmp``, renamed
  atomically to ``<unit>``, then committed by writing
  ``_manifest/<unit>.json`` with the run key.  A unit without its manifest
  is not committed, whatever is on disk.
- **Start-of-run sweep**: before any unit runs, every manifest whose key
  is not the current one is deleted, and so is every entry of the out dir
  that is not a unit committed under the current key: units of an older
  config, input or split, a unit renamed into place but never committed,
  leftover temp dirs.  A resume therefore reruns exactly the units that
  are not committed under its key, and the out dir never holds rows
  written under two keys.

The out dir belongs to the run: it must be missing, empty, or an earlier
checkpoint dir (one holding ``_manifest/``).  ``_manifest/_run.json``
carries the run's wall time, summed over its invocations under one key
and updated at every commit (the clock starts before any planning work,
e.g. the stale-crawl winner scan).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Any, Callable

from .. import __version__ as ENGINE_VERSION

RUN = "_run"  # the run record's manifest name; no unit takes it


def run_key(inputs: list[str], params: dict) -> str:
    """Digest of the inputs' (name, size, mtime_ns), the canonical JSON of
    ``params`` and the engine version."""
    files = []
    for path in inputs:
        st = os.stat(path)
        files.append([os.path.basename(path), st.st_size, st.st_mtime_ns])
    doc = {"inputs": files, "params": params, "engine": ENGINE_VERSION}
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(canon.encode()).hexdigest()[:24]


def load_manifest(out_dir: str) -> dict[str, dict]:
    """unit → manifest record for every unit committed in ``out_dir``
    (the run record included, under ``RUN``)."""
    mdir = os.path.join(out_dir, "_manifest")
    records: dict[str, dict] = {}
    for name in sorted(os.listdir(mdir)) if os.path.isdir(mdir) else []:
        if name.endswith(".json"):
            with open(os.path.join(mdir, name)) as f:
                records[name[: -len(".json")]] = json.load(f)
    return records


def _remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.lexists(path):
        os.remove(path)


class Checkpoint:
    """The resume decision for one run over ``inputs`` with ``params``:
    construct it first (it sweeps), skip units ``done`` reports, and
    ``publish`` the rest."""

    def __init__(self, out_dir: str, inputs: list[str], params: dict) -> None:
        self.t0 = time.time()
        self.out_dir = out_dir
        self.key = run_key(inputs, params)
        mdir = os.path.join(out_dir, "_manifest")
        if os.path.isdir(out_dir) and os.listdir(out_dir) and not os.path.isdir(mdir):
            raise FileExistsError(f"{out_dir} is not empty and holds no checkpoint")
        os.makedirs(mdir, exist_ok=True)
        self.committed: dict[str, dict] = {}
        for name in os.listdir(mdir):
            path = os.path.join(mdir, name)
            if name.endswith(".json"):  # written atomically, so complete
                with open(path) as f:
                    record = json.load(f)
                if record.get("key") == self.key:
                    self.committed[name[: -len(".json")]] = record
                    continue
            os.remove(path)  # another key's manifest, or a temp file
        for name in os.listdir(out_dir):
            if name != "_manifest" and name not in self.committed:
                _remove(os.path.join(out_dir, name))
        self._prior_wall = self.committed.get(RUN, {}).get("wall_sec", 0.0)

    def path(self, unit: str) -> str:
        return os.path.join(self.out_dir, unit)

    def done(self, unit: str) -> dict | None:
        """The unit's manifest record if it is committed under this key."""
        return self.committed.get(unit)

    def elapsed(self) -> float:
        return round(time.time() - self.t0, 3)

    def publish(self, unit: str, write: Callable[[str], dict | None]) -> dict:
        """``write(tmp_dir)`` fills the unit (returning extra manifest
        fields); then rename, then commit.  Returns the manifest record."""
        final = self.path(unit)
        tmp = final + ".tmp"
        os.makedirs(tmp)  # the sweep removed any earlier temp dir
        t0 = time.time()
        record = dict(write(tmp) or {})
        record["wall_sec"] = round(time.time() - t0, 3)
        os.replace(tmp, final)  # atomic unit publish
        record.update(unit=unit, key=self.key,
                      committed_at=time.strftime("%Y-%m-%dT%H:%M:%S"))
        self._commit(unit, record)
        self.committed[unit] = record
        self._commit(RUN, {"key": self.key,
                           "wall_sec": round(self._prior_wall + self.elapsed(), 3)})
        return record

    def publish_dataset(self, unit: str, ds: Any, **fields: Any) -> dict:
        """Publish a Ray dataset's parquet files; records its row count."""
        import pyarrow.dataset as pads

        def write(tmp: str) -> dict:
            ds.write_parquet(tmp)
            return {**fields, "rows": pads.dataset(tmp).count_rows()}

        return self.publish(unit, write)

    def _commit(self, unit: str, record: dict) -> None:
        path = os.path.join(self.out_dir, "_manifest", f"{unit}.json")
        with open(path + ".tmp", "w") as f:
            json.dump(record, f, indent=1)
        os.replace(path + ".tmp", path)
