"""The committed mutant list stays applicable: every old text occurs exactly
once in its file, and every test it names exists.  Running the mutants is
tests/mutants.py's job."""

from mutants import MUTANTS, ROOT


def test_every_mutant_applies_to_one_place():
    assert MUTANTS
    for m in MUTANTS:
        text = (ROOT / m.file).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, (m.file, m.old)
        assert m.new != m.old
        for test in m.tests:
            path, name = test.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), test
