"""tools/migrate_ids.py: two run trees compared through an id map and dropped keys."""
import hashlib
import importlib.util
import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from reinit_lab import DataConfig, NetworkSpec, RunConfig, Seeds, online_sim, run_experiment

spec = importlib.util.spec_from_file_location("migrate_ids", Path(__file__).parents[1] / "tools" / "migrate_ids.py")
migrate_ids = importlib.util.module_from_spec(spec)
spec.loader.exec_module(migrate_ids)

CFG = RunConfig(
    network=NetworkSpec(8, (6,), 4),
    data=DataConfig(num_classes=4, dim=8, per_class=20, class_separation=3.0),
    epochs=2,
    batch_size=20,
    seeds=Seeds(1, 2, 3, 4),
)
# the dropped key, named once for the run files and once for the study file's base
DROPS = ["--drop", "network.activation", "--drop", "base.network.activation"]


def old_tree(new: Path, old: Path) -> dict:
    """new as a writer that also stored network.activation would have left
    it, in each run's config and checkpoint and in the study file's base;
    returns each new run id's old id."""
    shutil.copytree(new, old)
    study_path = old / "online" / "online_sim.json"
    study = json.loads(study_path.read_text())
    study["base"]["network"]["activation"] = "relu"
    study_path.write_text(json.dumps(study, sort_keys=True, indent=2))
    old_ids = {}
    for config_path in sorted(old.rglob("config.json")):
        config = json.loads(config_path.read_text())
        config["network"]["activation"] = "relu"
        config_path.write_text(json.dumps(config, sort_keys=True, indent=2))
        ckpt = config_path.parent / "best.ckpt"
        head, body = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["network"]["activation"] = "relu"
        ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
        blob = json.dumps(config, sort_keys=True).encode()
        old_ids[config_path.parent.name] = hashlib.sha256(blob).hexdigest()[:12]
    for path in sorted(old.rglob("*"), reverse=True):  # deepest first, so renames keep parents valid
        if path.name in old_ids:
            path.rename(path.with_name(old_ids[path.name]))
    for path in (p for p in old.rglob("*") if p.is_file() and p.suffix in (".json", ".jsonl", ".csv")):
        text = path.read_text()
        for new_id, old_id in old_ids.items():
            text = text.replace(new_id, old_id)
        path.write_text(text)
    return old_ids


@pytest.fixture
def trees(tmp_path):
    """The tree of a run and a one-method online simulation, as the new and
    the old writer left it, and the id of the online run."""
    new, old = tmp_path / "new", tmp_path / "old"
    run_experiment(CFG, out_dir=new)
    [row] = online_sim(replace(CFG, stages=2), ("warm_start",), out_dir=new / "online")["rows"]
    old_ids = old_tree(new, old)
    assert sorted(old_ids) == sorted([CFG.run_id, row["run_id"]])
    assert not (old / CFG.run_id).exists() and not (old / "online" / row["run_id"]).exists()
    return old, new, row["run_id"]


def test_the_dropped_key_and_the_id_map_account_for_every_difference(trees, capsys):
    old, new, _ = trees
    assert migrate_ids.main([str(old), str(new), *DROPS]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "through 2 id mappings; 0 differences" in captured.err


def test_without_the_drop_every_old_id_and_key_is_a_difference(trees, capsys):
    old, new, online_id = trees
    assert migrate_ids.main([str(old), str(new)]) == 1
    out = capsys.readouterr().out
    # no id maps, so the run and the online run are each only in one tree
    assert f"{CFG.run_id}/config.json: only in new" in out
    assert f"online/{online_id}/config.json: only in new" in out
    assert "online/online_sim.json: rows[0].run_id: " in out
    assert "online/online_sim.json: rows[0].chunks[0].run_id: " in out
    assert "online/online_sim.json: base.network.activation: only in old" in out


def test_a_changed_value_is_printed_with_its_key(trees, capsys):
    old, new, _ = trees
    metrics = next(old.glob("*/metrics.jsonl"))
    lines = metrics.read_text().splitlines()
    record = json.loads(lines[1])
    record["weight_norm"] += 1.0
    metrics.write_text("\n".join([lines[0], json.dumps(record, sort_keys=True)]) + "\n")
    assert migrate_ids.main([str(old), str(new), *DROPS]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith(f"{CFG.run_id}/metrics.jsonl: line 2.weight_norm: ")
