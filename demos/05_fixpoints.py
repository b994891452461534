"""
Fixpoint orbits and uniform stabilization
=========================================

An increasing monotone step applied from a base climbs a finite lattice, so
it must stop. fixpoint_index reports where, with the whole orbit as evidence.
uniform_stabilization asks a harder question: one index that works as a
valid equation across every frame of a family.
"""

from modalbench import (Frame, InputError, TermStore, bits_to_worlds,
                        chain_term, diamond_term, enumerate_chains,
                        fixpoint_index, lemma_valuation, make_chain,
                        uniform_stabilization)

store = TermStore()
step = diamond_term(store)  # <>x | x, one-step reachability plus stay-put

# On the successor path, iterating from {2} walks backwards to everything.
path = Frame(3, (0b010, 0b100, 0b000))
result = fixpoint_index(path, step, "x", 0b100)
print("orbit on the path:", [bits_to_worlds(b) for b in result.orbit])
print("index:", result.index, "fixpoint:", bits_to_worlds(result.fixpoint))

# Parameters ride along as a fixed valuation of the other variables.
t = chain_term(store)
result = fixpoint_index(make_chain(3), t, "x", 0, lemma_valuation(1))
print("chain step from empty:", [bits_to_worlds(b) for b in result.orbit])

# The precheck rejects steps that are not increasing in the pivot, before
# any iteration happens.
try:
    fixpoint_index(path, store.box(store.var("x")), "x", 0)
except InputError as exc:
    print("rejected:", exc)

# Across all eight 3-world chains the reachability step settles at index 1:
# iterate 1 and iterate 2 coincide as a valid equation on every frame.
chains3 = enumerate_chains(3)
print("reachability settles at:",
      uniform_stabilization(chains3, step, "x", 2))

# The chain step does not settle within the same bound; that refusal is the
# finite heart of the non-stabilization construction.
print("chain step up to 1:",
      uniform_stabilization(chains3, t, "x", 1))
