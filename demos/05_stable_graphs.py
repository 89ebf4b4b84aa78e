"""Stable graphs: the combinatorics of boundary strata.

Each graph carries vertex genera, numbered legs, and edges (nodes);
self-loops and multi-edges are allowed.  The enumerator builds type (g, n)
from the graphs of type (g, n - 1) by inverting the forgetful map: leg n
goes on a vertex, on a new genus-0 vertex bubbled off another leg, or on a
new genus-0 vertex splitting an edge.  The types (g, 0), (0, 3) and (1, 1)
invert the gluing maps instead: besides the smooth graph, each graph of
type (g - 1, n + 2) with its last two legs joined into an edge, and for
n = 0 each pair of graphs of types (g1, 1) and (g - g1, 1) joined at their
legs.  Candidates are deduplicated by canonical labeling.
"""
from tautrings import enumerate_graphs, generator_count, validate_graph

print("All seven strata of the unpointed genus-2 space:")
for graph in enumerate_graphs(2, 0):
    print("  ", graph)

print("\nCounts for small types (edge-count histogram in brackets):")
for (g, n) in [(0, 4), (0, 5), (1, 1), (1, 2), (2, 0), (2, 1)]:
    graphs = enumerate_graphs(g, n)
    hist = {}
    for h in graphs:
        hist[h.num_edges] = hist.get(h.num_edges, 0) + 1
    print(f"  (g={g}, n={n}): {len(graphs)} graphs {sorted(hist.items())}")

print("\nValidity checking is independent of enumeration:")
smooth = enumerate_graphs(1, 1)[0]
print("  smooth (1,1) graph valid:", validate_graph(smooth, 1, 1))
print("  ... and invalid as a (2,1) graph:", validate_graph(smooth, 2, 1))

print("\nAdditive generator counts (graph + psi/kappa decorations),")
print("an upper bound for the rank of each tautological group:")
for degree in range(0, 2):
    print(f"  (g=0, n=4), degree {degree}:", generator_count(0, 4, degree))
for degree in range(0, 3):
    print(f"  (g=1, n=2), degree {degree}:", generator_count(1, 2, degree))
