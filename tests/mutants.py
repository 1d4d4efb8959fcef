"""Mutants of the package that the tests must kill.

Each record names a module of `src/greenpoly`, an exact text that occurs
once in it, the text that replaces it, the test node ids that must each fail
on the mutated package, and a timeout in seconds for that run, so a mutant
that makes a loop run forever fails its check instead of hanging the suite.
`tests/test_mutants.py` applies each mutant to a copy of the checkout and
runs its nodes there; run it with `pytest -m mutants`.  A surviving mutant
is a gap in the tests, to be closed in the tests.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/greenpoly
    old: str  # occurs exactly once in module
    new: str
    kills: tuple  # test node ids that must each fail
    timeout: float  # seconds for the run of kills


MUTANTS = [
    # the class-sum Gram fills each row of a twist orbit unpermuted
    Mutant(
        "orbit-fill-without-permutation",
        "charring.py",
        "gram[p[i]] = list(map(row.__getitem__, p))",
        "gram[p[i]] = list(row)",
        ("tests/test_charring.py::test_table_grams_match_per_entry_oracle[B-3]",
         "tests/test_charring.py::test_table_grams_match_per_entry_oracle[A-4]",
         "tests/test_charring.py::test_omega_at_matches_per_entry_oracle_on_pair_rows[C2]"),
        120,
    ),
    # -1 acts on chi^(alpha;beta) by (-1)^|alpha| in place of (-1)^|beta|:
    # the same sign for even n
    Mutant(
        "minus-w-sign-from-alpha",
        "weyl.py",
        "tuple(-1 if sum(beta) % 2 else 1 for _, beta in bipartitions(n))",
        "tuple(-1 if sum(alpha) % 2 else 1 for alpha, _ in bipartitions(n))",
        ("tests/test_charring.py::test_bc_columns_match_per_term_oracle[1]",
         "tests/test_charring.py::test_bc_columns_match_per_term_oracle[3]",
         "tests/test_charring.py::test_bc_columns_match_per_term_oracle[5]"),
        120,
    ),
    # the first twist looked up after the identity with its first two
    # entries swapped
    Mutant(
        "twist-with-two-entries-swapped",
        "charring.py",
        "        found[i] = perm\n",
        "        found[i] = perm[1::-1] + perm[2:] if len(found) == 1 else perm\n",
        ("tests/test_charring.py::test_twists_are_the_linear_characters_of_the_table[B-3]",
         "tests/test_charring.py::test_twists_are_the_linear_characters_of_the_table[A-3]",
         "tests/test_charring.py::test_table_grams_match_per_entry_oracle[B-3]"),
        120,
    ),
    # the class-sum kernel's slot width one bit narrower
    Mutant(
        "class-gram-slot-one-bit-narrower",
        "charring.py",
        "    b = slot_bits(sum(terms))\n",
        "    b = slot_bits(sum(terms)) - 1\n",
        ("tests/test_charring.py::test_packed_kernel_wide_signed_coefficients",
         "tests/test_charring.py::test_row_gram_width_holds_a_tight_entry"),
        180,
    ),
    # adjugate forgets the sign of a row swap
    Mutant(
        "adjugate-drops-row-swap-sign",
        "polyq.py",
        "            m[k], m[piv] = m[piv], m[k]\n            sign = -sign\n",
        "            m[k], m[piv] = m[piv], m[k]\n",
        ("tests/test_lusztigshoji.py::test_block_inverse_edge_cases[zero-pivot-2]",
         "tests/test_lusztigshoji.py::test_block_inverse_edge_cases[zero-pivot-3]"),
        120,
    ),
    # the JSON writer takes DEL for printable ASCII
    Mutant(
        "json-writer-leaves-del-unescaped",
        "cli.py",
        """    if " " <= c <= "~" and c not in '"\\\\':""",
        """    if " " <= c <= "\\x7f" and c not in '"\\\\':""",
        ("tests/test_cli.py::test_json_text_escapes_each_character_class_as_json_does[del]",),
        120,
    ),
    # the product over the lines of M takes out[c | m] for out[c ^ m]
    Mutant(
        "q-M-product-or-for-xor",
        "springer.py",
        "shift * out[c ^ m]",
        "shift * out[c | m]",
        ("tests/test_springer.py::TestMRep::test_gram_22",
         "tests/test_springer.py::TestMRep::test_even_orthogonal_sign_line_2222",
         "tests/test_springer.py::TestMRep::test_pairing_matches_sum_over_component_group"),
        120,
    ),
    # type A's lines of V_Z in degree 2
    Mutant(
        "type-a-vz-lines-in-degree-two",
        "springer.py",
        "lines = [(1, 0)] * (len(mults) - 1)",
        "lines = [(2, 0)] * (len(mults) - 1)",
        ("tests/test_springer.py::TestMRep::test_tr_m_identity_product",
         "tests/test_springer.py::TestMRep::test_pgl_two_power"),
        120,
    ),
    # the O_2 sign line of V_Z acted on trivially
    Mutant(
        "o2-line-trivial",
        "springer.py",
        "lines.append((1, gen_bit[p]))",
        "lines.append((1, 0))",
        ("tests/test_springer.py::TestMRep::test_tr_m_22",
         "tests/test_springer.py::TestMRep::test_gram_22",
         "tests/test_springer.py::TestMRep::test_z2_shape_norm_one"),
        120,
    ),
    # the sign line of an O_2m block (m >= 2) acted on trivially
    Mutant(
        "o2m-sign-line-trivial",
        "springer.py",
        "lines.append((r // 2, gen_bit[p]))",
        "lines.append((r // 2, 0))",
        ("tests/test_springer.py::TestMRep::test_even_orthogonal_sign_line_2222",),
        120,
    ),
    # reduced_word carries w^-1(rho) on by the previous generator
    Mutant(
        "reduced-word-back-by-wrong-generator",
        "weyl.py",
        "back = _act_ambient(gens[i], back)",
        "back = _act_ambient(gens[i - 1], back)",
        ("tests/test_weyl.py::test_reduced_words_of_representatives_match_descent_by_inverses[A-3]",
         "tests/test_weyl.py::test_reduced_words_of_every_element_match_descent_by_inverses[B-3]",
         "tests/test_weyl.py::test_reduced_words_multiply_back"),
        120,
    ),
    # the Chevalley product compared with p(q) at q = 1 only: a slot width
    # of 0 packs a polynomial as its value at 1
    Mutant(
        "chevalley-at-q-one",
        "charring.py",
        "    b = slot_bits(top * max(d.norm1() for d in dets) + p.norm_inf())\n",
        "    b = 0\n",
        ("tests/test_charring.py::test_chevalley_failure_names_the_first_changed_class[A-1]",
         "tests/test_charring.py::test_chevalley_failure_names_the_first_changed_class[C-3]",
         "tests/test_charring.py::test_chevalley_failure_names_the_first_changed_class[G2-2]"),
        120,
    ),
    # the Chevalley comparison without its factor det_V(1 - qw)
    Mutant(
        "chevalley-without-det",
        "charring.py",
        "if sum(map(mul, packed, col)) * det.pack(b) != at",
        "if sum(map(mul, packed, col)) != at",
        ("tests/test_charring.py::test_chevalley_failure_names_the_first_changed_class[A-1]",
         "tests/test_charring.py::test_chevalley_failure_matches_polynomial_oracle[B-3]",
         "tests/test_spin.py::test_exact_identities[D-4]"),
        120,
    ),
    # the reflection target with +2 <r, v> alpha: not a reflection
    Mutant(
        "pin-reflection-target-sign",
        "spin.py",
        "- 2 * dot * a",
        "+ 2 * dot * a",
        ("tests/test_spin.py::test_exact_identities[A-1]",
         "tests/test_spin.py::test_exact_identities[B-8]",
         "tests/test_spin.py::test_exact_identities[G2-2]"),
        120,
    ),
    # the pin lifts' reflection check never fails
    Mutant(
        "pin-reflection-unchecked",
        "spin.py",
        "    if not all(map(_reflects, roots)):\n",
        "    if False and not all(map(_reflects, roots)):\n",
        ("tests/test_spin.py::test_build_pin_rejects_lifts_that_do_not_reflect[A-2]",
         "tests/test_spin.py::test_build_pin_rejects_lifts_that_do_not_reflect[D-4]",
         "tests/test_spin.py::test_build_pin_rejects_lifts_that_do_not_reflect[G2-2]"),
        120,
    ),
    # the reflection checked on e_0 + ... + e_(m-1), B = 1: errors at two
    # coordinates that cancel there go unseen
    Mutant(
        "pin-test-vector-b-one",
        "spin.py",
        "    big = 8 * one * one + 1\n",
        "    big = 1\n",
        ("tests/test_spin.py::test_reflection_test_vector_tells_coordinates_apart[A-3]",
         "tests/test_spin.py::test_reflection_test_vector_tells_coordinates_apart[B-4]",
         "tests/test_spin.py::test_reflection_test_vector_tells_coordinates_apart[D-4]"),
        120,
    ),
    # the conjugate row filled as chi^lam, without the factor sgn
    Mutant(
        "conjugate-row-without-sgn",
        "weyl.py",
        "tuple(map(mul, twin, sgn_values))",
        "twin",
        ("tests/test_weyl.py::test_s12_table_matches_beta_list_recursion[2]",
         "tests/test_weyl.py::test_s12_table_matches_beta_list_recursion[5]",
         "tests/test_weyl.py::test_s12_table_matches_beta_list_recursion[8]"),
        120,
    ),
    # a product of two twists stored as the newer twist alone
    Mutant(
        "twist-product-without-composition",
        "charring.py",
        "found.setdefault(perm[j], tuple(map(perm.__getitem__, other)))",
        "found.setdefault(perm[j], perm)",
        ("tests/test_charring.py::test_twists_are_the_linear_characters_of_the_table[B-3]",
         "tests/test_charring.py::test_twists_are_the_linear_characters_of_the_table[C-4]",
         "tests/test_charring.py::test_twists_are_the_linear_characters_of_the_table[G2-2]"),
        120,
    ),
    # M's column j summed on its diagonal entry only, as if every column
    # paired to zero with every earlier irreducible
    Mutant(
        "gram-column-diagonal-only",
        "lusztigshoji.py",
        "    start = min(map(column_of.__getitem__, nonzero & column_of.keys()), default=len(coords))\n",
        "    start = len(coords) - 1\n",
        ("tests/test_lusztigshoji.py::test_m_takes_cross_orbit_entries_in_full",
         "tests/test_lusztigshoji.py::test_solve_matches_per_block_oracle[C2]",
         "tests/test_lusztigshoji.py::test_solve_matches_per_block_oracle[C3]"),
        120,
    ),
    # the closure order read off the bit below each guard bit, a bit of the
    # difference itself, so a partial sum that falls short can pass
    Mutant(
        "closure-guard-bit-one-low",
        "springer.py",
        "guard = sum(1 << (w * k + w - 1) for k in range(width))",
        "guard = sum(1 << (w * k + w - 2) for k in range(width))",
        ("tests/test_springer.py::test_closure_order_is_dominance[A-6]",
         "tests/test_springer.py::test_closure_order_is_dominance[C-3]"),
        120,
    ),
    # the rank's elimination adds the pivot row where it subtracts it
    Mutant(
        "rank-elimination-adds-pivot-row",
        "charring.py",
        "row = [p * x - a * y for x, y in zip(row, piv)]",
        "row = [p * x + a * y for x, y in zip(row, piv)]",
        ("tests/test_charring.py::test_int_matrix_rank_matches_fraction_oracle",
         "tests/test_charring.py::test_int_matrix_rank_on_minus_one_grams[A-4]",
         "tests/test_charring.py::test_int_matrix_rank_on_minus_one_grams[B-3]"),
        120,
    ),
    # the spin-square witness names the class before the one that fails
    Mutant(
        "spin-square-witness-one-class-early",
        "spin.py",
        "label_str(c.label) for c, u, det in zip(g.classes,",
        "label_str(c.label) for c, u, det in zip(g.classes[:1] + g.classes[:-1],",
        ("tests/test_cli.py::test_verify_all_failure_witnesses",),
        120,
    ),
    # the elliptic witness with rank and count swapped
    Mutant(
        "elliptic-witness-rank-count-swapped",
        "spin.py",
        '{"rank": rank, "count": count}',
        '{"rank": count, "count": rank}',
        ("tests/test_cli.py::test_verify_all_failure_witnesses",),
        120,
    ),
    # a failed pin construction drops out of the list unreported
    Mutant(
        "pin-construction-failure-dropped",
        "spin.py",
        '        return out + [("pin_construction", False, str(exc))]\n',
        "        return out\n",
        ("tests/test_cli.py::test_verify_all_reports_a_failed_pin_construction",),
        120,
    ),
    # a public method and a public constant that nothing reads
    Mutant(
        "unused-public-method",
        "polyq.py",
        "    def norm1(self) -> int:\n",
        "    def spare_norm(self) -> int:\n        return 0\n\n    def norm1(self) -> int:\n",
        ("tests/test_policy.py::test_rule[every_public_name_has_a_user]",),
        120,
    ),
    Mutant(
        "unused-public-constant",
        "polyq.py",
        "ONE = IntPoly((1,))\n",
        "ONE = IntPoly((1,))\nSPARE = IntPoly((0, 1))\n",
        ("tests/test_policy.py::test_rule[every_public_name_has_a_user]",),
        120,
    ),
]
