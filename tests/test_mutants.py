"""The committed mutant list stays applicable: every old text occurs exactly
once in its file, every test it names exists, and each row either names
tests or is equivalent with a reason.  Running the mutants is
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


def test_every_mutant_is_named_tests_or_an_equivalent_with_a_reason():
    for m in MUTANTS:
        if m.reason:
            assert m.tests == (), (m.file, m.old)  # an equivalent row runs no tests
        else:
            assert m.tests, (m.file, m.old)
