"""Walk through the two encodings of a ranked multifurcating tree shape.

A shape is stored as two vectors: per internal node (ranked 1..K from
the root), the rank of its parent and its pendant-leaf count.  The same
shape is equivalently a lower-triangular F-matrix of surviving-lineage
counts.  This script builds a 12-tip shape, shows both encodings and the
intermediate child-count (D) matrix, collapses an edge through both
routes, and round-trips the serialized forms.
"""

import numpy as np

from mtshapes import (
    TreeShape,
    collapse_edge,
    collapse_edge_fmatrix,
    present_edges,
    string_to_dmatrix,
    validate_fmatrix,
    validate_string,
)
from mtshapes.shapes import string_to_fmatrix

shape = TreeShape.from_text("0,1,2,3,3|3,1,2,3,3")
print("shape:", shape)
print("tips:", shape.n_tips, " internal nodes:", shape.n_internal)
print("parent ranks t:", shape.t)
print("leaf counts  l:", shape.l)
print("(internal children, leaves) per node:", shape.children_counts())

print("\nD-matrix (unfurcated children of node j after event i):")
print(string_to_dmatrix(shape.t, shape.l))
print("\nF-matrix (row-wise prefix sums of D):")
f = string_to_fmatrix(shape.t, shape.l)
print(f)
print("valid F-matrix:", validate_fmatrix(f, n=12) is None)

print("\nedges joining consecutively ranked nodes:", present_edges(shape))
e = 2
via_string = collapse_edge(shape, e)
via_matrix = TreeShape.from_fmatrix(collapse_edge_fmatrix(f, e))
print(f"collapse edge ({e}, {e + 1}) via vectors: ", via_string)
print(f"collapse edge ({e}, {e + 1}) via matrices:", via_matrix)
assert via_string == via_matrix
print("F-matrix after collapse (row/column deleted):")
print(np.array(via_string.fmatrix()))

print("\nserialized text:", shape.to_text())
print("serialized JSON:", shape.to_json())
assert TreeShape.from_text(shape.to_text()) == shape
assert TreeShape.from_json(shape.to_json()) == shape
print("round-trips: ok")

print("\nvalidation names the first broken constraint:")
print("  (0,1 | 2,1) ->", validate_string((0, 1), (2, 1)))
print("  ((3,0),(1,4)) ->", validate_fmatrix([[3, 0], [1, 4]]))
