"""Assignment-cost contract over BENCH_assignment.json.

A gain policy's `select` resolves the incoming worker's parameters once per
request, so scoring a table for a worker the fit has never seen (whose φ
is the population median) must cost about the same as for a worker it
has: at most MAX_UNSEEN_OVER_SEEN times the seen worker's median, for
every policy on every table. The ratio is recomputed from the recorded
medians rather than read from the bench's own field.
"""

from _common import finish, load

MAX_UNSEEN_OVER_SEEN = 1.5

bench = load("BENCH_assignment.json")
failures = []
cases = []
for table in bench["tables"]:
    shape = f"{table['rows']}x{table['columns']}/{table['answers_per_cell']}"
    for name, p in sorted(table["policies"].items()):
        if p["seen_us"] <= 0 or p["unseen_us"] <= 0:
            failures.append(f"{name} on {shape}: no select time recorded")
            continue
        if p["seen_candidates"] <= 0 or p["unseen_candidates"] <= 0:
            failures.append(f"{name} on {shape}: no candidates were scored")
            continue
        ratio = p["unseen_us"] / p["seen_us"]
        cases.append(f"{name} {shape} {ratio:.2f}x")
        if ratio > MAX_UNSEEN_OVER_SEEN:
            failures.append(
                f"{name} on {shape}: unseen worker {p['unseen_us']:.0f} us vs seen "
                f"{p['seen_us']:.0f} us = {ratio:.2f}x (limit {MAX_UNSEEN_OVER_SEEN}x)"
            )
if not cases and not failures:
    failures.append("no assignment cases recorded")
finish(
    "ASSIGNMENT",
    failures,
    f"assignment gates ok: unseen/seen select time {', '.join(cases)} "
    f"(limit {MAX_UNSEEN_OVER_SEEN}x)",
)
