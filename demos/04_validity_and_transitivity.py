"""
Validity over the full powerset algebra
=======================================

check_validity quantifies a statement over every valuation of its variables.
Within the bit cap the scan is exhaustive and deterministic; beyond it the
checker either refuses or samples, and sampling never concludes "valid".
"""

from modalbench import (CapExceededError, Frame, TermStore, boxdot_power,
                        check_validity, eq, make_chain, parse_statement,
                        transitivity_degree)

store = TermStore()
frame = make_chain(3)

report = check_validity(frame, parse_statement("x <= <>x | x", store))
print("x <= <>x | x:", report.verdict, f"({report.valuations_tried} valuations)")

# The T axiom needs reflexivity. The countermodel reported is the first one
# in scan order, so reruns are reproducible.
report = check_validity(frame, parse_statement("[]x <= x", store))
print("[]x <= x on the bare chain:", report.verdict, report.valuation.to_sets())
report = check_validity(make_chain(3, (0, 1, 2)),
                        parse_statement("[]x <= x", store))
print("[]x <= x on the reflexive chain:", report.verdict)

# 9 worlds times 3 variables is 27 assignment bits, over the default cap.
big = make_chain(9)
stmt = parse_statement("tpow(1) = tpow(2)", store)
try:
    check_validity(big, stmt)
except CapExceededError as exc:
    print("refused:", exc)

# Sampling starts at the all-empty valuation, which here already separates
# the first two iterates of the chain step.
report = check_validity(big, stmt, samples=4096)
print("sampled:", report.verdict,
      f"(tried {report.valuations_tried}, exhaustive={report.exhaustive})")

# Degrees of transitivity: the least n with the (n+1)-th power of the
# reflexive closure inside the n-th. The transitive chain has degree 1, the
# bare successor path only composes down at 2.
path = Frame(3, (0b010, 0b100, 0b000))
print("degrees:", transitivity_degree(make_chain(3), 4),
      transitivity_degree(path, 4))

# Same answer through the axiom: boxdot^n x -> boxdot^(n+1) x valid.
axiom = eq(store.imp(boxdot_power(2, "x", store), boxdot_power(3, "x", store)),
           store.top())
print("path validates the degree-2 axiom:",
      check_validity(path, axiom).verdict)
