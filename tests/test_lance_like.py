"""Lance-style table tests: merge-on-read deletes, commit conflicts,
WAP publish, check constraints and the two-process commit race."""

import pyarrow as pa
import pytest


@pytest.mark.usefixtures("ray_session")
class TestMergeOnReadDelete:
    def _build(self, tmp_path, rows_per_fragment=3):
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like

        root = str(tmp_path / "tbl")
        t = pa.table({"k": pa.array(list(range(9)), pa.int64()),
                      "v": pa.array([f"v{i}" for i in range(9)], pa.string())})
        lance_like.write_dataset(rd.from_arrow(t), root,
                                 rows_per_fragment=rows_per_fragment)
        return root, lance_like

    def test_delete_file_not_rewrite(self, tmp_path):
        root, ll = self._build(tmp_path)
        before = ll.read_manifest(root)
        man = ll.delete_where_mor(root, [("k", ">=", 3), ("k", "<", 6)], "k")
        # every fragment carried by reference; only the middle one scanned
        assert man["fragments_carried"] == len(before["fragments"]) == 3
        assert man["fragments_scanned"] == 1
        assert man["rows_deleted"] == 3 and man["keys_deleted"] == 3
        assert [f["path"] for f in man["fragments"]] == \
            [f["path"] for f in before["fragments"]]
        # reader applies the delete; pinned old version does not
        assert sorted(ll.read_arrow(root).column("k").to_pylist()) == \
            [0, 1, 2, 6, 7, 8]
        assert len(ll.read_arrow(root, version=1)) == 9
        got = ll.read_dataset(root).to_pandas()
        assert sorted(got["k"].tolist()) == [0, 1, 2, 6, 7, 8]

    def test_deletes_compound_and_projection_widens(self, tmp_path):
        root, ll = self._build(tmp_path)
        ll.delete_where_mor(root, [("k", "==", 0)], "k")
        man = ll.delete_where_mor(root, [("k", "==", 7)], "k")
        assert len(man["delete_files"]) == 2
        # projection WITHOUT the key column still applies the delete
        got = ll.read_dataset(root, columns=["v"]).to_pandas()
        assert sorted(got["v"].tolist()) == \
            [f"v{i}" for i in (1, 2, 3, 4, 5, 6, 8)]
        assert list(got.columns) == ["v"]

    def test_compact_carries_deletes_cow_refuses(self, tmp_path):
        root, ll = self._build(tmp_path)
        ll.delete_where_mor(root, [("k", "<", 2)], "k")
        man = ll.compact(root, target_rows_per_fragment=100)
        assert man.get("delete_files"), "compact must carry delete files"
        assert sorted(ll.read_arrow(root).column("k").to_pylist()) == \
            list(range(2, 9))
        with pytest.raises(NotImplementedError):
            ll.delete_where(root, [("k", "==", 5)])
        with pytest.raises(NotImplementedError):
            ll.merge_upsert(root, pa.table({"k": pa.array([5], pa.int64()),
                                            "v": pa.array(["x"])}), "k")

    def test_duplicate_keys_all_die(self, tmp_path):
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like as ll

        root = str(tmp_path / "dup")
        t = pa.table({"k": pa.array([1, 1, 2, 2, 3], pa.int64()),
                      "v": pa.array(list("abcde"), pa.string())})
        ll.write_dataset(rd.from_arrow(t), root, rows_per_fragment=2)
        man = ll.delete_where_mor(root, [("v", "==", "a")], "k")
        # equality semantics: key 1 dies everywhere, both copies
        assert man["rows_deleted"] == 1 and man["keys_deleted"] == 1
        assert sorted(ll.read_arrow(root).column("v").to_pylist()) == \
            ["c", "d", "e"]


@pytest.mark.usefixtures("ray_session")
class TestCommitConflict:
    def test_second_writer_loses_loudly(self, tmp_path):
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like as ll

        root = str(tmp_path / "tbl")
        t = pa.table({"k": pa.array([1, 2], pa.int64())})
        ll.write_dataset(rd.from_arrow(t), root)
        # two writers prepare an append against the SAME snapshot: the
        # first commit wins, the second must raise, not clobber
        man = ll.read_manifest(root)
        stale = dict(man, version=man["version"] + 1,
                     fragments=list(man["fragments"]))
        ll.write_dataset(rd.from_arrow(t), root, mode="append")  # winner
        with pytest.raises(ll.CommitConflict):
            ll._commit_manifest(root, stale)
        # winner's commit is intact: both fragments readable
        assert len(ll.read_arrow(root)) == 4

    def test_retry_against_new_latest_succeeds(self, tmp_path):
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like as ll

        root = str(tmp_path / "tbl")
        t = pa.table({"k": pa.array([1], pa.int64())})
        ll.write_dataset(rd.from_arrow(t), root)
        ll.write_dataset(rd.from_arrow(t), root, mode="append")
        # the documented loser recovery: re-run the op (re-reads latest)
        man = ll.write_dataset(rd.from_arrow(t), root, mode="append")
        assert man["version"] == 3
        assert len(ll.read_arrow(root)) == 3


@pytest.mark.usefixtures("ray_session")
class TestWapPublish:
    def test_publish_then_tampered_audit_fails(self, tmp_path):
        import pyarrow.parquet as pq
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like as ll

        stage = str(tmp_path / "stage")
        target = str(tmp_path / "target")
        t = pa.table({"k": pa.array(list(range(6)), pa.int64())})
        ll.write_dataset(rd.from_arrow(t), stage, rows_per_fragment=3)
        man = ll.wap_publish(stage, target, expected_rows=6)
        assert man["audited_rows"] == 6
        assert sorted(ll.read_arrow(target).column("k").to_pylist()) == \
            list(range(6))
        # tamper a staged fragment: the next publish's audit must fail
        # and the target must keep serving the last good snapshot
        frag = ll.fragment_paths(stage)[0]
        tampered = pq.read_table(frag).slice(0, 2)
        pq.write_table(tampered, frag)
        v = ll.latest_version(target)
        with pytest.raises(ll.WapAuditError):
            ll.wap_publish(stage, target, expected_rows=6)
        assert ll.latest_version(target) == v
        # (publish references staged files in place, so mutating staged
        # fragments after publish corrupts the published snapshot too --
        # WAP guards the commit boundary, immutability of fragments is the
        # storage contract)
        # row-count contract alone also gates
        stage2 = str(tmp_path / "stage2")
        ll.write_dataset(rd.from_arrow(t), stage2)
        with pytest.raises(ll.WapAuditError):
            ll.wap_publish(stage2, target, expected_rows=7)


@pytest.mark.usefixtures("ray_session")
class TestMorRobustness:
    def test_orphan_delete_file_is_inert(self, tmp_path):
        """A crash between delete-file write and manifest commit leaves an
        orphan in deletes/ -- unreferenced, it must not affect reads."""
        import pyarrow.parquet as pq
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like as ll

        root = str(tmp_path / "tbl")
        t = pa.table({"k": pa.array([1, 2, 3], pa.int64())})
        ll.write_dataset(rd.from_arrow(t), root)
        import os
        os.makedirs(root + "/deletes", exist_ok=True)
        pq.write_table(pa.table({"k": pa.array([1, 2, 3], pa.int64())}),
                       root + "/deletes/delete-99.parquet")  # orphan
        assert sorted(ll.read_arrow(root).column("k").to_pylist()) == [1, 2, 3]
        assert sorted(ll.read_dataset(root).to_pandas()["k"]) == [1, 2, 3]


@pytest.mark.usefixtures("ray_session")
class TestCheckConstraints:
    def test_violation_aborts_before_commit(self, tmp_path):
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like as ll

        root = str(tmp_path / "tbl")
        bad = pa.table({"k": pa.array([1, 0, 3], pa.int64())})
        with pytest.raises(Exception) as ei:
            ll.write_dataset(rd.from_arrow(bad), root,
                             constraints=[("k", ">", 0)])
        assert "violate CHECK" in str(ei.value)
        assert ll.latest_version(root) == 0  # nothing committed

    def test_append_inherits_table_contract(self, tmp_path):
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like as ll

        root = str(tmp_path / "tbl")
        good = pa.table({"k": pa.array([1, 2], pa.int64())})
        man = ll.write_dataset(rd.from_arrow(good), root,
                               constraints=[("k", ">", 0)])
        assert man["constraints"] == [["k", ">", 0]]
        # append WITHOUT passing constraints: the recorded contract applies
        with pytest.raises(Exception) as ei:
            ll.write_dataset(rd.from_arrow(
                pa.table({"k": pa.array([0], pa.int64())})), root,
                mode="append")
        assert "violate CHECK" in str(ei.value)
        assert ll.latest_version(root) == 1
        # a clean append passes and carries the contract forward
        man2 = ll.write_dataset(rd.from_arrow(
            pa.table({"k": pa.array([5], pa.int64())})), root, mode="append")
        assert man2["constraints"] == [["k", ">", 0]]
        assert sorted(ll.read_arrow(root).column("k").to_pylist()) == [1, 2, 5]

    def test_write_table_enforces_too(self, tmp_path):
        from distributed_system___ocr_ray.sources import lance_like as ll

        root = str(tmp_path / "tbl2")
        with pytest.raises(ll.ConstraintViolation):
            ll.write_table(pa.table({"k": pa.array([-1], pa.int64())}), root,
                           constraints=[("k", ">=", 0)])
        assert ll.latest_version(root) == 0
        man = ll.write_table(pa.table({"k": pa.array([0, 7], pa.int64())}),
                             root, constraints=[("k", ">=", 0)])
        assert man["constraints"] == [["k", ">=", 0]]


class TestCommitRaceRealProcesses:
    def test_two_process_append_race(self, tmp_path):
        """Two OS processes race an append prepared against the SAME
        snapshot (a barrier file aligns their reads): exactly one commit
        per version wins, losers raise CommitConflict, and retrying
        against the new latest converges -- no rows lost, none
        duplicated, no torn manifest."""
        import json
        import subprocess
        import sys

        import pyarrow.parquet as pq

        from distributed_system___ocr_ray.sources import lance_like as ll

        root = str(tmp_path / "tbl")
        pq.write_table(pa.table({"k": pa.array([0], pa.int64())}),
                       str(tmp_path / "seed.parquet"))
        # seed v1 without Ray (write_table is driver-side)
        ll.write_table(pa.table({"k": pa.array([0], pa.int64())}), root)

        script = r'''
import json, os, sys, time
sys.path.insert(0, "/root/repo")
import pyarrow as pa
from distributed_system___ocr_ray.sources import lance_like as ll

root, wid, barrier = sys.argv[1], int(sys.argv[2]), sys.argv[3]
# both workers read the same snapshot, then wait at the barrier
man = ll.read_manifest(root)
with open(f"{barrier}.ready{wid}", "w") as f:
    f.write("r")
while not os.path.exists(barrier):
    time.sleep(0.01)
conflicts = 0
rows = pa.table({"k": pa.array([100 + wid], pa.int64())})
for attempt in range(10):
    try:
        frag = f"data/fragment-race-{wid}.parquet"
        import pyarrow.parquet as pq
        pq.write_table(rows, os.path.join(root, frag))
        latest = ll.latest_version(root)
        newman = dict(ll.read_manifest(root))
        newman["version"] = latest + 1
        newman["fragments"] = list(newman["fragments"]) + [
            {"path": frag, "rows": 1}]
        ll._commit_manifest(root, newman)
        break
    except ll.CommitConflict:
        conflicts += 1
        time.sleep(0.01)
else:
    raise SystemExit("never committed")
print(json.dumps({"wid": wid, "conflicts": conflicts}))
'''
        barrier = str(tmp_path / "go")
        procs = [
            subprocess.Popen([sys.executable, "-c", script, root, str(i), barrier],
                             stdout=subprocess.PIPE, text=True)
            for i in (1, 2)
        ]
        import time as _t
        deadline = _t.time() + 30
        while _t.time() < deadline and not all(
                (tmp_path / f"go.ready{i}").exists() for i in (1, 2)):
            _t.sleep(0.01)
        (tmp_path / "go").write_text("go")
        outs = [json.loads(p.communicate(timeout=60)[0].strip().splitlines()[-1])
                for p in procs]
        assert all(p.returncode == 0 for p in procs)
        # both workers' rows present exactly once; versions strictly grew
        ks = sorted(ll.read_arrow(root).column("k").to_pylist())
        assert ks == [0, 101, 102]
        assert ll.latest_version(root) == 3
