"""The helpers behind the verify suites."""

from riordan.verify import Check, SuiteReport, _compare_sequences


def compare(got, want):
    report = SuiteReport("test")
    _compare_sequences("label", got, want, report)
    (check,) = report.checks
    return check


class TestCompareSequences:
    def test_first_mismatch_is_reported(self):
        check = compare([1, 5, 3], [1, 2, 4])
        assert not check.ok and check.detail == "first mismatch at index 1: 5 != 2"

    def test_shorter_got_fails(self):
        check = compare([1, 2], [1, 2, 3])
        assert not check.ok and check.detail == "length mismatch: got 2 terms, want 3"

    def test_longer_got_fails(self):
        check = compare([1, 2, 3, 4], [1, 2, 3])
        assert not check.ok and check.detail == "length mismatch: got 4 terms, want 3"


class TestReports:
    def test_positional_construction(self):
        report = SuiteReport("s", [Check("c", False, "d")])
        assert report.suite == "s" and report.checks == [Check("c", False, "d")]
        assert report.notes == [] and not report.ok

    def test_each_report_owns_its_lists(self):
        a, b = SuiteReport("a"), SuiteReport("b")
        a.add("c", True)
        a.notes.append("note")
        assert b.checks == [] and b.notes == []
        assert a.ok and a.checks == [Check("c", True)]
