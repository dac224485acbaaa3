"""The bi-dominant linkage graph and its glicci component.

Nodes are the point counts 1..47; an edge d--e (with an h-vector label)
exists when a verified certificate links d and e points through a
Gorenstein scheme with that h-vector.  Two different h-vectors linking
the same pair give parallel edges.  A node is glicci exactly when it
lies in the connected component of node 1.
"""

from ._frozen import Frozen
from .store import load_certificates
from .tangent import replay_certificate
from .hvectors import MAX_LINK_DEGREE

__all__ = ["LinkageGraph", "build_graph", "glicci_component", "emit_dot"]


class LinkageGraph(Frozen):
    """Nodes 1..d_max plus a multiset of labelled undirected edges."""

    __slots__ = ("d_max", "edges")

    def __init__(self, edges=(), d_max=MAX_LINK_DEGREE):
        cleaned = {(max(d, e), min(d, e), h_csv) for d, e, h_csv in edges}
        object.__setattr__(self, "d_max", d_max)
        object.__setattr__(self, "edges", tuple(sorted(cleaned, key=lambda t: (t[1], t[0], t[2]))))

    @property
    def nodes(self):
        return tuple(range(1, self.d_max + 1))


def build_graph(store_dir, replay=False):
    """Graph of all verified certificates in the store.

    With replay=True every certificate is recomputed from its witness and
    dropped (with a report entry) if the replay disagrees.  Returns
    (graph, report) where report lists skipped files/certificates.
    """
    certs, errors = load_certificates(store_dir)
    report = ["unparsed %s: %s" % (name, err) for name, err in errors]
    edges = []
    for cert in certs:
        if cert.verdict != "verified":
            continue
        if replay:
            ok, _, _ = replay_certificate(cert)
            if not ok:
                report.append(
                    "replay mismatch: d=%d e=%d h=%s seed=%d"
                    % (cert.d, cert.e, cert.h.csv(), cert.seed)
                )
                continue
        edges.append((cert.d, cert.e, cert.h.csv()))
    return LinkageGraph(edges), report


def glicci_component(graph):
    """The connected component of node 1 (these point counts are glicci),
    grown over the edges between nodes 1..d_max until no edge leaves it."""
    nodes = set(graph.nodes)
    edges = [(a, b) for a, b, _ in graph.edges if a in nodes and b in nodes]
    component, size = {1} & nodes, 0
    while size != len(component):
        size = len(component)
        for a, b in edges:
            if a in component or b in component:
                component |= {a, b}
    return component


def emit_dot(graph):
    """Deterministic DOT text: nodes ascending, edges by (min, max, label)."""
    lines = ["graph linkage {"]
    for n in graph.nodes:
        lines.append("  %d;" % n)
    for a, b, h_csv in sorted(graph.edges, key=lambda t: (t[1], t[0], t[2])):
        lines.append('  %d -- %d [label="%s"];' % (b, a, h_csv))
    lines.append("}")
    return "\n".join(lines) + "\n"
