"""README's structure: its sections state the present design, and each change
that asks something of a user is one row of the "Migrations" table at its end.
Its CLI synopsis names each subcommand's flags as the parser defines them, and
its study-file shape is the one the studies return.
"""
import argparse
import re
from pathlib import Path

from reinit_lab import DataConfig, NetworkSpec, RunConfig, grid_search, noise_study, online_sim, stage_sweep
from reinit_lab.cli import make_parser

README = Path(__file__).resolve().parents[1] / "README.md"
MIGRATIONS = "## Migrations"
TABLE_HEADER = "| commit | old form → new form | `CHANGES.md` |"


def sections() -> tuple[str, str]:
    """README's text above the "Migrations" heading, and the text from it on."""
    text = README.read_text()
    at = text.index(f"\n{MIGRATIONS}\n")
    return text[:at], text[at:]


def test_no_section_above_the_table_holds_a_migration_note():
    above, _ = sections()
    paragraphs = re.split(r"\n\s*\n", above)
    leads = [m.group(1) for p in paragraphs if (m := re.match(r"\*\*(.+?)\*\*", p.strip(), re.S))]
    assert [lead for lead in leads if "migration" in lead.lower()] == []


def test_the_migrations_table_keeps_its_header_row():
    _, table = sections()
    lines = table.splitlines()
    assert TABLE_HEADER in lines
    assert lines[lines.index(TABLE_HEADER) + 1] == "|---|---|---|"


def synopsis_flags() -> dict[str, set[str]]:
    """Each subcommand's flags in README's CLI synopsis, the first code block
    under "## CLI"; a study command's `[common flags]` are train's."""
    text = README.read_text()
    block = text[text.index("\n## CLI\n") :].split("```")[1]
    commands = {}
    for line in block.strip().splitlines():
        if line.startswith("reinit-lab "):
            name = line.split()[1]
            commands[name] = ""
        commands[name] += line
    flags = {name: set(re.findall(r"\[(--[a-z-]+)", line)) for name, line in commands.items()}
    for name, line in commands.items():
        if "[common flags]" in line:
            flags[name] |= flags["train"]
    return flags


def test_the_cli_synopsis_names_the_parser_flags():
    [subparsers] = [a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parser_flags = {
        name: {opt for action in sub._actions for opt in action.option_strings if opt not in ("-h", "--help")}
        for name, sub in subparsers.choices.items()
    }
    assert synopsis_flags() == parser_flags


def study_layout() -> tuple[set[str], dict[str, tuple[list[str], set[str]]]]:
    """README's study-file keys, the first word of each line of the code
    block under "Run directory layout" that starts with `study`, and each
    study file's axes and derived keys from the table after it."""
    text = README.read_text()
    section = text[text.index("\n## Run directory layout\n") :].split("\n## ")[1]
    [block] = [b for b in section.split("```")[1::2] if b.strip().startswith("study ")]
    keys = {line.split()[0] for line in block.strip().splitlines()}
    kinds = {}
    for line in section.splitlines():
        if re.match(r"\| `\w+\.json` \|", line):
            name, axes, _, derived = (re.findall(r"`(\w+)", cell) for cell in line.strip("|").split("|"))
            kinds[name[0]] = (axes, set(derived))
    return keys, kinds


def test_the_study_file_shape_is_what_the_studies_return():
    base = RunConfig(
        NetworkSpec(8, (6,), 4),
        DataConfig(num_classes=4, dim=8, per_class=20, class_separation=3.0),
        epochs=2,
        batch_size=20,
        stages=2,
    )
    studies = [
        grid_search(base, [0.05], [0.0]),
        stage_sweep(base, [2]),
        noise_study(base, [0.0], ["sp"]),
        online_sim(base, ["warm_start"]),
    ]
    keys, kinds = study_layout()
    assert kinds == {study["study"]: (list(study["axes"]), set(study) - keys) for study in studies}
    assert all(keys <= set(study) for study in studies)
