"""Unit tests for the correctness oracle."""

from __future__ import annotations

import pytest

from repro.analysis import CorrectnessReport, check_key, check_store
from repro.clocks import DVVMechanism, ServerVVMechanism, Sibling, create
from repro.core import Dot
from repro.kvstore import ClientSession, SyncReplicatedStore, WriteLog
from repro.workloads import figure1_trace, replay_trace


def make_sibling(value, writer, seq):
    return Sibling(value=value, origin_dot=Dot(writer, seq), writer=writer)


class TestCheckKey:
    def build_log(self, *siblings):
        log = WriteLog()
        for sibling in siblings:
            log.append("k", sibling, "A", sibling.writer or "client")
        return log

    def test_exact_survival_is_correct(self):
        first = make_sibling("v1", "c1", 1)
        concurrent = make_sibling("v2", "c2", 1)
        log = self.build_log(first, concurrent)
        verdict = check_key("k", [first, concurrent], log)
        assert verdict.is_correct
        assert verdict.lost_updates == []
        assert verdict.sibling_surplus == 0
        assert verdict.sibling_deficit == 0

    def test_lost_update_detected(self):
        first = make_sibling("v1", "c1", 1)
        concurrent = make_sibling("v2", "c2", 1)
        log = self.build_log(first, concurrent)
        verdict = check_key("k", [concurrent], log)
        assert not verdict.is_correct
        assert verdict.lost_updates == [Dot("c1", 1)]
        assert verdict.sibling_deficit == 1

    def test_superseded_write_is_not_lost(self):
        first = make_sibling("v1", "c1", 1)
        second = make_sibling("v2", "c2", 1)
        log = self.build_log(first, second)
        log.report_parents(second.origin_dot, [first.origin_dot])
        verdict = check_key("k", [second], log)
        assert verdict.is_correct
        assert verdict.lost_updates == []

    def test_false_concurrency_detected(self):
        first = make_sibling("v1", "c1", 1)
        second = make_sibling("v2", "c2", 1)
        log = self.build_log(first, second)
        log.report_parents(second.origin_dot, [first.origin_dot])
        verdict = check_key("k", [first, second], log)
        assert not verdict.is_correct
        assert len(verdict.false_concurrency_pairs) == 1
        assert verdict.spurious_siblings == [Dot("c1", 1)]
        assert verdict.sibling_surplus == 1

    def test_session_superseded_classified_separately(self):
        first = make_sibling("v1", "c1", 1)
        second_same_client = make_sibling("v2", "c1", 2)   # concurrent per context
        log = self.build_log(first, second_same_client)
        verdict = check_key("k", [second_same_client], log)
        assert verdict.lost_updates == []
        assert verdict.session_superseded == [Dot("c1", 1)]
        assert verdict.is_correct


class TestCheckStore:
    def test_figure1_verdicts(self):
        dvv_report = check_store(replay_trace(figure1_trace(), DVVMechanism()).store)
        server_report = check_store(replay_trace(figure1_trace(), ServerVVMechanism()).store)
        assert dvv_report.is_correct
        assert not server_report.is_correct
        assert server_report.total_lost_updates >= 1

    def test_report_rows_and_headers_align(self):
        report = check_store(replay_trace(figure1_trace(), DVVMechanism()).store)
        assert len(report.as_row()) == len(CorrectnessReport.table_headers())
        assert report.keys_checked == 1
        assert report.lost_update_rate == 0.0

    def test_check_store_without_convergence(self):
        store = SyncReplicatedStore(DVVMechanism(), server_ids=("A", "B"))
        client = ClientSession("c1")
        client.get(store, "k", server_id="A")
        client.put(store, "k", "v1", server_id="A")
        report = check_store(store, converge_first=False)
        assert report.keys_checked == 1
        # replica A holds the write; the (divergent) replica B is not consulted
        assert report.total_lost_updates == 0

    @pytest.mark.parametrize("name", ["dvv", "dvvset", "dotted_vve", "causal_history"])
    def test_exact_mechanisms_pass_on_figure1(self, name):
        report = check_store(replay_trace(figure1_trace(), create(name)).store)
        assert report.is_correct

    def test_empty_store_report(self):
        store = SyncReplicatedStore(DVVMechanism(), server_ids=("A",))
        report = check_store(store)
        assert report.keys_checked == 0
        assert report.is_correct
