"""Assignment-cost contract over BENCH_assignment.json.

A gain policy's `select` resolves the incoming worker's parameters once per
request, so scoring a table for a worker the fit has never seen (whose φ
is the population median) must cost about the same as for a worker it
has: at most MAX_UNSEEN_OVER_SEEN times the seen worker's median, for
every policy on every table.

`select` scores only the cells that can make the top k: a continuous cell
skips the quality `erf`, and a categorical cell whose entropy ceiling is
below the running k-th best gain is not scored at all. So each policy's
seen and unseen medians must be at most MAX_OVER_FULL times the table's
`full_us`, the same bench's reference that scores every cell's inherent
gain through the per-cell API and ranks them.

Every ratio is recomputed from the recorded medians rather than read from
the bench's own fields.
"""

from _common import finish, load

MAX_UNSEEN_OVER_SEEN = 1.5
MAX_OVER_FULL = 0.5

bench = load("BENCH_assignment.json")
failures = []
cases = []
for table in bench["tables"]:
    shape = f"{table['rows']}x{table['columns']}/{table['answers_per_cell']}"
    full = table.get("full_us", 0)
    if full <= 0:
        failures.append(f"{shape}: no full-scoring reference time recorded")
    for name, p in sorted(table["policies"].items()):
        if p["seen_us"] <= 0 or p["unseen_us"] <= 0:
            failures.append(f"{name} on {shape}: no select time recorded")
            continue
        if p["seen_candidates"] <= 0 or p["unseen_candidates"] <= 0:
            failures.append(f"{name} on {shape}: no candidates were scored")
            continue
        ratio = p["unseen_us"] / p["seen_us"]
        case = f"{name} {shape} {ratio:.2f}x"
        if ratio > MAX_UNSEEN_OVER_SEEN:
            failures.append(
                f"{name} on {shape}: unseen worker {p['unseen_us']:.0f} us vs seen "
                f"{p['seen_us']:.0f} us = {ratio:.2f}x (limit {MAX_UNSEEN_OVER_SEEN}x)"
            )
        if full > 0:
            for worker in ("seen", "unseen"):
                over = p[f"{worker}_us"] / full
                if over > MAX_OVER_FULL:
                    failures.append(
                        f"{name} on {shape}: {worker} worker {p[f'{worker}_us']:.0f} us vs "
                        f"full scoring {full:.0f} us = {over:.2f}x (limit {MAX_OVER_FULL}x)"
                    )
            worst = max(p["seen_us"], p["unseen_us"]) / full
            case += f", {worst:.2f}x of full"
        cases.append(case)
if not cases and not failures:
    failures.append("no assignment cases recorded")
finish(
    "ASSIGNMENT",
    failures,
    f"assignment gates ok: {', '.join(cases)} "
    f"(limits unseen/seen {MAX_UNSEEN_OVER_SEEN}x, select/full {MAX_OVER_FULL}x)",
)
