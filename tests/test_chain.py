"""Chain geometry, disorder draws, coupling matrix structure, config files."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralchain.chain import (ChainConfig, DisorderSpec, build_chain,
                               build_coupling_matrix, build_positions,
                               parse_config_text)
from chiralchain.errors import ConfigError


def test_chain_config_validation():
    with pytest.raises(ConfigError):
        ChainConfig(n_atoms=0, xi=1.0, gamma_left=1.0, gamma_right=1.0)
    with pytest.raises(ConfigError):
        ChainConfig(n_atoms=2, xi=-0.1, gamma_left=1.0, gamma_right=1.0)
    with pytest.raises(ConfigError):
        ChainConfig(n_atoms=2, xi=1.0, gamma_left=-1.0, gamma_right=1.0)
    with pytest.raises(ConfigError):
        ChainConfig(n_atoms=2, xi=1.0, gamma_left=0.0, gamma_right=0.0)


def test_gamma_is_the_larger_rate():
    config = ChainConfig(n_atoms=2, xi=1.0, gamma_left=0.3, gamma_right=0.9)
    assert config.gamma == 0.9
    config = ChainConfig(n_atoms=2, xi=1.0, gamma_left=1.2, gamma_right=0.9)
    assert config.gamma == 1.2


def test_disorder_spec_modes():
    assert DisorderSpec.none().mode == "none"
    single = DisorderSpec.single_site(3, 0.05)
    assert (single.site, single.shift_fraction) == (3, 0.05)
    ens = DisorderSpec.ensemble(0.01, 50, 7)
    assert (ens.fluctuation_fraction, ens.n_realizations, ens.seed) == (0.01, 50, 7)
    with pytest.raises(ConfigError):
        DisorderSpec(mode="bogus")
    with pytest.raises(ConfigError):
        DisorderSpec.single_site(0, 0.05)
    with pytest.raises(ConfigError):
        DisorderSpec(mode="single_site", site=2)
    with pytest.raises(ConfigError):
        DisorderSpec.ensemble(0.5, 10, 0)  # crossing becomes possible
    with pytest.raises(ConfigError):
        DisorderSpec.ensemble(0.01, 0, 0)


@pytest.mark.parametrize("seed", [-1, 2.0, None, "7"])
def test_ensemble_seed_must_be_a_non_negative_integer(seed):
    # numpy's generators take non-negative integer seeds only
    with pytest.raises(ConfigError, match="seed"):
        DisorderSpec(mode="ensemble", fluctuation_fraction=0.01,
                     n_realizations=10, seed=seed)
    assert DisorderSpec.ensemble(0.01, 10, np.int64(0)).seed == 0


@pytest.mark.parametrize("count", [0, 2.5, math.nan, "7"])
def test_ensemble_realization_count_must_be_a_positive_integer(count):
    with pytest.raises(ConfigError, match="n_realizations"):
        DisorderSpec.ensemble(0.01, count, 3)
    assert DisorderSpec.ensemble(0.01, np.int64(2), 3).n_realizations == 2


def test_positions_uniform_lattice():
    config = ChainConfig(n_atoms=4, xi=math.pi, gamma_left=1.0, gamma_right=1.0)
    positions = build_positions(config)
    assert np.allclose(positions, math.pi * np.arange(4))


def test_positions_single_site_shift():
    config = ChainConfig(n_atoms=5, xi=2.0, gamma_left=0.9, gamma_right=1.0)
    positions = build_positions(config, DisorderSpec.single_site(3, 0.05))
    expected = 2.0 * (np.arange(5) + np.array([0, 0, 0.05, 0, 0]))
    assert np.allclose(positions, expected)
    with pytest.raises(ConfigError):
        build_positions(config, DisorderSpec.single_site(6, 0.05))


def test_positions_reject_reordering():
    config = ChainConfig(n_atoms=3, xi=1.0, gamma_left=1.0, gamma_right=1.0)
    # a +1.5 xi shift pushes atom 1 past atom 2
    with pytest.raises(ConfigError):
        build_positions(config, DisorderSpec.single_site(1, 1.5))
    # coincident positions are fine (Dicke clustering)
    positions = build_positions(config, DisorderSpec.single_site(1, 1.0))
    assert positions[0] == positions[1]


def test_ensemble_positions_reproducible():
    config = ChainConfig(n_atoms=6, xi=math.pi, gamma_left=0.9, gamma_right=1.0)
    disorder = DisorderSpec.ensemble(0.01, 20, 42)
    first = build_positions(config, disorder, realization_index=3)
    again = build_positions(config, disorder, realization_index=3)
    other = build_positions(config, disorder, realization_index=4)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    with pytest.raises(ConfigError):
        build_positions(config, disorder, realization_index=20)
    for index in (-1, 2.5):
        with pytest.raises(ConfigError):
            build_positions(config, disorder, realization_index=index)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 400), xi=st.floats(0.0, 1e3),
       width=st.floats(0.0, math.nextafter(0.5, 0.0)),
       seed=st.integers(0, 2 ** 32 - 1), index=st.integers(0, 9))
@example(n=400, xi=1e3, width=math.nextafter(0.5, 0.0), seed=0, index=0)
def test_ensemble_draws_never_reorder_the_chain(n, xi, width, seed, index):
    # w < 0.5 keeps neighbouring offsets less than 1 apart, so the
    # gap (1 + u_2 - u_1) * xi of any draw is never negative
    config = ChainConfig(n_atoms=n, xi=xi, gamma_left=1.0, gamma_right=1.0)
    disorder = DisorderSpec.ensemble(width, 10, seed)
    positions = build_positions(config, disorder, index)
    assert positions.shape == (n,)


def test_ensemble_zero_width_is_clean_lattice():
    config = ChainConfig(n_atoms=4, xi=1.3, gamma_left=1.0, gamma_right=1.0)
    disorder = DisorderSpec.ensemble(0.0, 5, 0)
    positions = build_positions(config, disorder, 2)
    assert np.allclose(positions, 1.3 * np.arange(4))


def test_coupling_matrix_entries():
    # compare the vectorized assembly against an explicit loop
    positions = np.array([0.0, 1.1, 2.9, 3.4])
    gl, gr = 0.4, 0.9
    matrix = build_coupling_matrix(positions, gl, gr)
    n = positions.size
    for u in range(n):
        for v in range(n):
            if u == v:
                expected = -(gl + gr) / 2.0
            elif u < v:
                expected = -gl * np.exp(-1j * abs(positions[u] - positions[v]))
            else:
                expected = -gr * np.exp(-1j * abs(positions[u] - positions[v]))
            assert matrix.entries[u, v] == pytest.approx(expected, abs=1e-15)
    assert matrix.gamma == 0.9
    assert not matrix.entries.flags.writeable


def test_cascaded_matrix_is_lower_triangular():
    config = ChainConfig(n_atoms=5, xi=math.pi, gamma_left=0.0, gamma_right=1.0)
    matrix = build_chain(config)
    upper = np.triu(matrix.entries, 1)
    assert np.all(upper == 0.0)


def test_dissipator_is_positive_semidefinite_rank_two():
    config = ChainConfig(n_atoms=7, xi=2.1, gamma_left=0.6, gamma_right=1.0)
    matrix = build_chain(config)
    emission = matrix.dissipator()
    eigs = np.linalg.eigvalsh(emission)
    assert np.all(eigs > -1e-12)
    assert np.sum(eigs > 1e-10) <= 2  # one channel per direction


def test_matrix_not_conjugate_symmetric_when_chiral():
    config = ChainConfig(n_atoms=3, xi=1.0, gamma_left=0.2, gamma_right=1.0)
    v = build_chain(config).entries
    assert np.max(np.abs(v - v.conj().T)) > 0.1


def test_build_coupling_matrix_validation():
    with pytest.raises(ConfigError):
        build_coupling_matrix(np.array([0.0, 2.0, 1.0]), 1.0, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            build_coupling_matrix(np.array([0.0, bad, 2.0]), 1.0, 1.0)
    with pytest.raises(ConfigError):
        build_coupling_matrix(np.array([0.0, 1.0]), 0.0, 0.0)
    with pytest.raises(ConfigError):
        build_coupling_matrix(np.array([[0.0, 1.0]]), 1.0, 1.0)


def test_build_coupling_matrix_leaves_the_callers_positions_writeable():
    positions = np.array([0.0, 1.0, 2.5])
    matrix = build_coupling_matrix(positions, 0.9, 1.0)
    assert positions.flags.writeable
    assert not matrix.positions.flags.writeable


CONFIG_TEXT = """
# five atoms at half-wavelength spacing
n_atoms = 5
xi_over_pi = 1.0
gamma_left = 0.9     # leftward rate
gamma_right = 1.0
disorder.mode = single_site
disorder.site = 3
disorder.shift_fraction = 0.05
"""


def test_parse_config_round_trip():
    config, disorder = parse_config_text(CONFIG_TEXT)
    assert config.n_atoms == 5
    assert config.xi == pytest.approx(math.pi)
    assert (config.gamma_left, config.gamma_right) == (0.9, 1.0)
    assert disorder.mode == "single_site"
    assert (disorder.site, disorder.shift_fraction) == (3, 0.05)


@pytest.mark.parametrize("disorder", [DisorderSpec.none(),
                                      DisorderSpec.single_site(3, 0.05),
                                      DisorderSpec.ensemble(0.01, 6, 3)])
def test_to_dict_reads_back_as_a_config_file(disorder):
    # 0.085 * pi / pi is 0.08500000000000002: the record keeps the typed value
    for xi_over_pi in (0.75, 0.085):
        config = ChainConfig(n_atoms=5, xi=xi_over_pi * math.pi,
                             gamma_left=0.9, gamma_right=1.0)
        record = config.to_dict()
        assert record["xi_over_pi"] == xi_over_pi
        text = "".join(
            [f"{key} = {value}\n" for key, value in record.items()]
            + [f"disorder.{key} = {value}\n"
               for key, value in disorder.to_dict().items()])
        parsed_config, parsed_disorder = parse_config_text(text)
        assert parsed_config.xi == config.xi
        assert parsed_config.to_dict() == record
        assert parsed_disorder == disorder


def test_parse_config_defaults_to_no_disorder():
    _, disorder = parse_config_text(
        "n_atoms = 2\nxi_over_pi = 0\ngamma_left = 1\ngamma_right = 1\n")
    assert disorder.mode == "none"


@pytest.mark.parametrize("text,fragment", [
    ("n_atoms = 2\nxi_over_pi = 0\ngamma_left = 1", "missing required"),
    ("bogus = 1\n", "unknown key"),
    ("n_atoms = 2\nn_atoms = 3\n", "duplicate key"),
    ("n_atoms = two\n", "bad value"),
    ("n_atoms 2\n", "expected key = value"),
])
def test_parse_config_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(text)


def test_parse_config_reports_line_numbers():
    text = "n_atoms = 2\nxi_over_pi = 1\nmystery = 3\n"
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text(text)
