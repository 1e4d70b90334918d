"""README's structure: its sections state the present design, and each change
that asks something of a user is one row of the "Migrations" table at its end.
"""
import re
from pathlib import Path

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
