"""The monomial kernels' exports."""


def test_selected_implementation_exports():
    import flatcheck._kernels as k

    assert k.IMPLEMENTATION in ("pure", "compiled")
    assert k.monomial_mul((1, 2), (3, 4)) == (4, 6)
    assert k.find_divisor((2, 2), [(3, 0), (1, 1)]) == 1
    assert k.find_divisor((0, 0), [(1, 0)]) == -1
