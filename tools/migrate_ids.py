"""Compare two run trees across a migration that changes run ids and drops keys.

    python tools/migrate_ids.py OLD_OUT NEW_OUT --drop network.activation --drop beta

OLD_OUT and NEW_OUT hold what the old and the new code wrote for the same
runs, for instance ``tools/run_digests.py`` in a checkout of each commit.
Write both under one OUT path and move each tree aside afterwards: IDX run
ids and ``config.json`` hold the data paths. The tool

1. maps each old run id to the id the new code gives the same run: the
   first 12 hex digits of the sha256 of its ``config.json`` with the dropped
   keys removed, as ``RunConfig.run_id`` hashes it. A named run keeps its
   name;
2. rewrites the old tree's paths and texts through that map, and removes
   each dropped key, a dotted path such as ``network.activation``, from the
   old tree's JSON files, JSONL lines and framed-file headers
   (``best.ckpt``, ``teacher_stage<t>.bin``);
3. compares every file and prints each difference left, one per line: the
   key of a JSON or JSONL value, the row and column of a ``summary.csv``
   (``wall_ms``, a timing, is not compared), a framed file's payload, or the
   bytes of any other file.

It prints a count of matched files and id mappings to stderr, and exits 1
when it printed a difference, 2 on a usage error and 0 otherwise. Standard
library only.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import re
import sys
from pathlib import Path

HEX_ID = re.compile(r"(?<![0-9a-f])[0-9a-f]{12}(?![0-9a-f])")
FRAMED = (".ckpt", ".bin")  # one JSON header line, then a binary payload


def drop_keys(obj, drops):
    """obj without each dotted key path in drops, when obj is a JSON object."""
    for path in drops:
        *parents, last = path.split(".")
        node = obj
        for key in parents:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node.pop(last, None)
    return obj


def config_id(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:12]


def id_map(old_root: Path, drops) -> dict:
    """The old-id -> new-id map of the unnamed runs under old_root. A named
    run keeps its id, and a config.json under another name is no run's."""
    mapping = {}
    for path in sorted(old_root.rglob("config.json")):
        config = json.loads(path.read_text())
        if config.get("run_name") is None and path.parent.name == config_id(config):
            mapping[path.parent.name] = config_id(drop_keys(config, drops))
    return mapping


def json_diff(old, new, where: str):
    """Each key path at which two JSON values differ, with both values."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            at = f"{where}.{key}" if where else key
            if key not in new or key not in old:
                yield f"{at}: only in {'old' if key in old else 'new'}"
            else:
                yield from json_diff(old[key], new[key], at)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from json_diff(a, b, f"{where}[{i}]")
    elif json.dumps(old) != json.dumps(new):  # so 1 differs from 1.0 and from true
        yield f"{where or 'value'}: {json.dumps(old)} != {json.dumps(new)}"


def csv_diff(old_text: str, new_text: str):
    old, new = (csv.DictReader(io.StringIO(text)) for text in (old_text, new_text))
    old_rows, new_rows = list(old), list(new)
    if old.fieldnames != new.fieldnames or len(old_rows) != len(new_rows):
        yield f"columns {old.fieldnames} and {len(old_rows)} rows != {new.fieldnames} and {len(new_rows)} rows"
        return
    for i, (a, b) in enumerate(zip(old_rows, new_rows), start=1):
        for column in a:
            if column != "wall_ms" and a[column] != b[column]:
                yield f"row {i} column {column}: {a[column]} != {b[column]}"


def file_diff(old_path: Path, new_path: Path, rename, drops):
    """The differences left between an old file, renamed and with its dropped
    keys removed, and the new file."""
    old_bytes, new_bytes = old_path.read_bytes(), new_path.read_bytes()
    if new_path.suffix in FRAMED:
        (old_head, old_body), (new_head, new_body) = (b.split(b"\n", 1) for b in (old_bytes, new_bytes))
        old_header = drop_keys(json.loads(rename(old_head.decode())), drops)
        yield from json_diff(old_header, json.loads(new_head), "header")
        if old_body != new_body:
            yield f"payload differs ({len(old_body)} bytes old, {len(new_body)} bytes new)"
        return
    try:
        old_text, new_text = rename(old_bytes.decode()), new_bytes.decode()
    except UnicodeDecodeError:
        if old_bytes != new_bytes:
            yield "bytes differ"
        return
    if new_path.name == "summary.csv":
        yield from csv_diff(old_text, new_text)
    elif new_path.suffix == ".jsonl":
        old_lines, new_lines = old_text.splitlines(), new_text.splitlines()
        if len(old_lines) != len(new_lines):
            yield f"{len(old_lines)} lines != {len(new_lines)} lines"
        for i, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
            yield from json_diff(drop_keys(json.loads(a), drops), json.loads(b), f"line {i}")
    else:
        try:
            old_value, new_value = json.loads(old_text), json.loads(new_text)
        except json.JSONDecodeError:
            if old_text != new_text:
                yield "text differs"
            return
        yield from json_diff(drop_keys(old_value, drops), new_value, "")


def files(root: Path, rename=str) -> dict:
    return {rename(str(p.relative_to(root))): p for p in sorted(root.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two run trees across a run-id migration.")
    parser.add_argument("old_out", type=Path)
    parser.add_argument("new_out", type=Path)
    parser.add_argument(
        "--drop", action="append", default=[], metavar="KEY", help="a dotted key the new code no longer writes"
    )
    args = parser.parse_args(argv)
    for root in (args.old_out, args.new_out):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    mapping, lines = id_map(args.old_out, args.drop), []

    def rename(text: str) -> str:
        return HEX_ID.sub(lambda m: mapping.get(m[0], m[0]), text)

    old_files, new_files = files(args.old_out, rename), files(args.new_out)
    for rel in sorted(old_files.keys() | new_files.keys()):
        if rel not in old_files or rel not in new_files:
            lines.append(f"{rel}: only in {'old' if rel in old_files else 'new'}")
        else:
            lines += [f"{rel}: {d}" for d in file_diff(old_files[rel], new_files[rel], rename, args.drop)]
    for line in lines:
        print(line)
    matched = len(old_files.keys() & new_files.keys())
    print(
        f"{matched} files matched on each side ({len(old_files)} old, {len(new_files)} new) "
        f"through {len(mapping)} id mappings; {len(lines)} differences",
        file=sys.stderr,
    )
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
