from typing import NamedTuple

import numpy as np
import pytest

from fluidq import (
    ArrivalProfile,
    RateAssignment,
    ServiceProfile,
    single_sink,
)


@pytest.fixture
def two_source_instance():
    """2 x 1 overloaded instance: lambda=(8,3), c=(4,2), mu=2, with the
    rate-proportional vector g=(2, 0.75)."""
    net = single_sink(2, [4.0, 2.0])
    arr = ArrivalProfile([8.0, 3.0])
    svc = ServiceProfile([2.0])
    rates = RateAssignment.from_dict(net, {(0, 0, 0): 2.0, (0, 1, 0): 0.75})
    return net, arr, svc, rates


def rates_of(net, mapping):
    return RateAssignment.from_dict(net, mapping)


class Adjacency(NamedTuple):
    out: list[tuple[int, ...]]  # per node: its out-link ids, ascending
    into: list[tuple[int, ...]]  # per node: its in-link ids, ascending
    layers: list[np.ndarray]  # per link layer: its link ids, ascending


def adjacency(net) -> Adjacency:
    """Reference adjacency read off ``net.links`` and node addressing alone,
    independent of the network's own link arrays and layer plans."""
    out = [[] for _ in range(net.num_nodes)]
    into = [[] for _ in range(net.num_nodes)]
    layers = [[] for _ in range(net.num_layers - 1)]
    for k, link in enumerate(net.links):
        out[net.node_id(link.layer, link.src)].append(k)
        into[net.node_id(link.layer + 1, link.dst)].append(k)
        layers[link.layer].append(k)
    return Adjacency(
        [tuple(ids) for ids in out],
        [tuple(ids) for ids in into],
        [np.array(ids, dtype=np.intp) for ids in layers],
    )


def single_sink_rates(net, per_source):
    """Rate vector for an N x 1 network from per-source values."""
    values = np.zeros(net.num_links)
    for k, link in enumerate(net.links):
        values[k] = per_source[link.src]
    return RateAssignment(net, values)


def ratio_rows(net, arr, svc, gamma):
    """The gamma system's ratio rows, written node by node: an ingress
    node sends lambda_i / gamma_1, a middle node of layer l receives
    gamma_l times what it sends, an egress node receives gamma_L * mu_j."""
    a_eq = np.zeros((net.num_nodes, net.num_links))
    for k, ln in enumerate(net.links):
        a_eq[net.node_id(ln.layer, ln.src), k] = 1.0 if ln.layer == 0 else -gamma[ln.layer]
        a_eq[net.node_id(ln.layer + 1, ln.dst), k] = 1.0
    b_eq = np.zeros(net.num_nodes)
    b_eq[: net.layer_sizes[0]] = arr.rates / gamma[0]
    b_eq[net.num_nodes - net.layer_sizes[-1] :] = gamma[-1] * svc.rates
    return a_eq, b_eq
