"""The helpers behind the verify suites."""

from riordan.verify import SuiteReport, _compare_sequences


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
