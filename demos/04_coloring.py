"""Chromatic certificates for the built graphs.

Two questions reach the same conclusion on the level-3 graft, and one
coloring search answers both: counting colors up, it finds chi = 4 with
a proper 4-coloring, and with a cut on the tips it reports that no
proper 3-coloring keeps every tip's neighborhood under 3 colors, which
forces chi >= 4 (a tip over k neighbor colors plus its own color needs
k+1).
"""

from burling import (
    build_graft, burling_pair, chromatic_number, bounds_only,
    is_proper, find_non_rainbow_coloring,
)

for k in (2, 3):
    gf, _ = build_graft(k)
    cert = chromatic_number(gf.graph)
    assert is_proper(gf.graph, cert.witness)
    print(f"graft k={k}: chi={cert.chi} "
          f"({cert.lower_bound_proof}, coloring re-checked)")

p3 = burling_pair(3)
print(f"pair  k=3: chi={chromatic_number(p3.graph).chi} "
      "(smaller than the graft: the apex tips are what push chi up)")

gf3, _ = build_graft(3)
res = find_non_rainbow_coloring(gf3, k=3, c=3)
print()
if res is None:
    print("rainbow search: every proper 3-coloring of graft-3 gives some")
    print("tip 3 distinctly colored neighbors, so chi(graft-3) >= 4")
else:
    print("unexpected witness:", res)

lo, hi = bounds_only(build_graft(4)[0].graph)
print()
print(f"graft k=4 is bigger than exact search wants; bounds give {lo}..{hi}")
