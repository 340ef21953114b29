import pytest

import zhangpile.lattice as lattice


@pytest.fixture
def redirected_table():
    """``lattice._neighbor_arrays`` with the middle site's first slot sent three
    site ids on, to a site that is not its neighbour: toppling that site then
    moves mass to the wrong place and keeps the total."""
    real = lattice._neighbor_arrays

    def table(shape, boundary):
        nbr, missing = real(shape, boundary)
        nbr = nbr.copy()
        c = len(nbr) // 2
        nbr[c, 0] = (nbr[c, 0] + 3) % len(nbr)
        return nbr, missing

    return table
