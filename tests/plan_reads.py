"""Print how many chunks each plan of test_executor.test_plans_pinned
reads per stripe, as a compact table.

Run from the repository root:

    PYTHONPATH=src python tests/plan_reads.py

Each line holds up to PER_LINE cases of one code, in case order: the
code as n,k,f, then each case's read count, or - where plan_chunks
raises.  tests/plan_reads.txt is this script's output at commit
f029e48, before plans read the fewest chunks the code allows;
test_executor checks that no pinned plan reads more than it says.
Not a test module: pytest does not collect it.
"""

from srcodes.core import plan_chunks
from srcodes.errors import InsufficientDataError

from test_executor import _pinned_cases

PER_LINE = 30


def read_counts():
    """(params, chunks read per stripe, or None where plan_chunks
    raises) for each pinned case, in order."""
    for p, available, targets in _pinned_cases():
        try:
            yield p, len(plan_chunks(p, available, targets).reads)
        except InsufficientDataError:
            yield p, None


def table_lines(counts):
    """The table's lines for (params, count) pairs in case order."""
    run, code = [], None
    for p, count in counts:
        now = f"{p.n},{p.k},{p.f}"
        if run and (now != code or len(run) == PER_LINE):
            yield " ".join([code, *run])
            run = []
        code = now
        run.append("-" if count is None else str(count))
    if run:
        yield " ".join([code, *run])


if __name__ == "__main__":
    for line in table_lines(read_counts()):
        print(line)
