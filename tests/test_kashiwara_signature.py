"""The signature against an oracle that shares none of its steps.

``signature`` is the Maslov index of the intersection triple, which
``triple_homology`` reads off one Smith form, a kernel basis and a
Bareiss reduction.  The same number is minus the signature of Kashiwara's
symmetric 3g x 3g form on L_alpha + L_beta + L_gamma,

    [[0,      q_ab,   q_ca^T],
     [q_ab^T, 0,      q_bc  ],
     [q_ca,   q_bc^T, 0     ]],

read straight off the triple of ``validate`` (Lion and Vergne, "The Weil
representation, Maslov index and theta series", 1980; Cappell, Lee and
Miller, "On the Maslov index", CPAM 47, 1994).  Its inertia comes from
``oracle_symmetric_signature``, an elimination over Fraction, so no Smith
form, kernel or Bareiss step is shared with the code under test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect import builtin, builtin_names, reverse_orientation, signature, stabilize, validate

from helpers import random_valid_diagram
from test_lazy_transforms import dense_diagram, oracle_symmetric_signature


def kashiwara_sigma(d):
    """-(n_+ - n_-) of Kashiwara's form on the triple of validate(d)."""
    t = validate(d).triple
    g = d.genus
    zero = ((0,) * g,) * g

    def band(*blocks):
        return [sum((b[i] for b in blocks), ()) for i in range(g)]

    ab, bc, ca = t.q_ab.entries, t.q_bc.entries, t.q_ca.entries
    ab_t, bc_t, ca_t = (q.transpose().entries for q in (t.q_ab, t.q_bc, t.q_ca))
    form = band(zero, ab, ca_t) + band(ab_t, zero, bc) + band(ca, bc_t, zero)
    n_pos, n_neg, _ = oracle_symmetric_signature(form)
    return n_neg - n_pos


def assert_matches_oracle(d):
    sigma = kashiwara_sigma(d)
    assert signature(d) == sigma
    assert signature(stabilize(d)) == sigma
    reversed_d = reverse_orientation(d)
    assert kashiwara_sigma(reversed_d) == -sigma
    assert signature(reversed_d) == -sigma


@pytest.mark.parametrize("name", builtin_names())
def test_atlas_signature_is_kashiwaras(name):
    assert_matches_oracle(builtin(name))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_signature_is_kashiwaras(seed):
    assert_matches_oracle(random_valid_diagram(seed, max_genus=7))


@pytest.mark.parametrize("seed", range(3))
def test_dense_signature_is_kashiwaras(seed):
    assert_matches_oracle(dense_diagram(seed))
