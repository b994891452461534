"""Workbench for finite Kripke frames, their full powerset algebras, and the
behavior of iterated modal terms on them: validity search with certificates,
chain families, transitivity degrees, fixpoint indices, and global consequence.
"""

from .algebra import (DEFAULT_BIT_CAP, FixpointResult, ValidityReport,
                      check_validity, fixpoint_index, frame_validates,
                      transitivity_degree, uniform_stabilization)
from .chains import (ChainSpec, LemmaCertificate, check_lemma, enumerate_chains,
                     falsifying_path_starts, lemma_valuation, make_chain)
from .consequence import (ConsequenceProblem, ConsequenceResult, build_sigma_pi,
                          check_consequence)
from .errors import CapExceededError, InputError, MissingVariableWarning
from .kripke import (MAX_WORLDS, Evaluator, Frame, Model, Valuation,
                     bits_to_worlds, evaluate, evaluate_orbit, frame_from_edges,
                     frame_from_json, frame_to_json, holds_globally, load_frame,
                     valuation_from_json, worlds_to_bits)
from .syntax import (ParseError, format_statement, format_term, parse_formula,
                     parse_statement)
from .terms import (Statement, Term, TermStore, boxdot_power, chain_term,
                    diamond_term, eq, free_vars, iterate, leq, node_count, s_term,
                    statement_vars, substitute, tree_size)
from .vector import SpaceEvaluator, first_countermodel

__version__ = "0.1.0"
