"""A move builds a new diagram from the classes it computes: the output
carries no atlas name, even when every input is a named atlas entry, and
it equals the diagram ``from_rows`` builds from its class rows.
"""

from trisect import (
    SlideMove,
    TorusTriple,
    TrisectionDiagram,
    apply_diffeomorphism,
    builtin,
    connect_sum,
    direct_sum,
    handle_slide,
    random_symplectic,
    reverse_orientation,
    split_diagram,
    stabilize,
)


def test_moves_drop_the_atlas_name():
    s4, cp2 = builtin("s4-g3"), builtin("cp2")
    outs = [
        handle_slide(s4, SlideMove("beta", 0, 2, -1)),
        direct_sum(cp2),
        direct_sum(cp2, s4),
        connect_sum(s4, cp2),
        stabilize(cp2),
        apply_diffeomorphism(s4, random_symplectic(3, 5, 2)),
        reverse_orientation(cp2),
        split_diagram([TorusTriple((1, 0), (0, 1), (1, 1))]),
    ]
    for out in outs:
        assert out.name is None
        rows = (s.classes.entries for s in out.systems)
        assert out == TrisectionDiagram.from_rows(out.genus, *rows)
    assert (s4.name, cp2.name) == ("s4-g3", "cp2")
