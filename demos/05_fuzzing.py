# Random legal op sequences as a stress test for the invariants.
#
# Each sequence starts from the seed graft and applies pendent / clone
# / join steps chosen by a seeded RNG, checking all five clean
# conditions after every step. A failure would print a replayable
# script; across this seed range there are none.

from burling.fuzz import generate_sequence, run_sequence

worst = None
for seed in range(25):
    seq = generate_sequence(seed, length=10)
    res = run_sequence(seq)
    assert res.ok, f"seed {seed} broke an invariant at step {res.failed_at}"
    if worst is None or res.final.graph.n > worst[1].final.graph.n:
        worst = (seq, res)
print("25 seeds x 10 ops: every intermediate graft stayed clean")

seq, res = worst
print(f"largest end state: {res.final.graph.n} vertices, "
      f"{len(res.final.tips)} tips")
print()
print("replayable script for that sequence:")
print(seq.script())
