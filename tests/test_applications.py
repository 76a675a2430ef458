"""Direct tests of `applications`."""

import pytest

from cubekit.applications import PipelineError, TreeProduct
from cubekit.graphs import path_graph


def test_tree_product_size_is_exact_and_ids_fit_in_int64():
    # 300^7 ~ 2.2e17 ids fit in int64; the last id decodes to the far corner
    space = TreeProduct((path_graph(300),) * 7)
    assert space.n == 300**7
    assert [int(c[0]) for c in space.decode_bulk([space.n - 1])] == [299] * 7
    assert space.dist_pair(0, space.n - 1) == 7 * 299


def test_tree_product_too_large_for_int64_is_refused():
    # 300^8 ~ 6.6e19 > 2^63: np.prod wrapped this to a negative size
    with pytest.raises(PipelineError, match="int64"):
        TreeProduct((path_graph(300),) * 8)
