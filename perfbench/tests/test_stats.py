import pytest

from stats import due_time_latencies, min_samples_for, percentile, tail_percentile


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 100) == 5.0
    assert percentile(samples, 1) == 1.0
    assert percentile(list(range(1, 101)), 99) == 99


def test_percentile_of_repeated_episodes_equals_one_episode():
    # A deterministic workload repeats one episode; pooling k identical
    # copies must not move a nearest-rank percentile.
    episode = [float((i * 37) % 101) for i in range(1000)]
    for q in (50, 99):
        assert percentile(episode * 4, q) == percentile(episode, q)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert min_samples_for(99) == 1000
    assert min_samples_for(90) == 100
    assert min_samples_for(50) == 20
    with pytest.raises(ValueError, match="at least 1000"):
        tail_percentile([1.0] * 999, 99)
    samples = list(range(1000))
    assert tail_percentile(samples, 99) == 989
    assert sum(1 for s in samples if s > 989) == 10


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        min_samples_for(100)


def test_due_time_latency_charges_a_generator_stall():
    # Requests are due every 10 ms; the generator stalls 100 ms, then
    # sends everything that came due at once.  The service answers each
    # request 5 ms after it is sent.
    due = [k * 0.010 for k in range(20)]
    stall_until = 0.100
    sent = [max(d, stall_until) for d in due]
    answered = [s + 0.005 for s in sent]
    latencies = due_time_latencies(due, answered)
    from_send = [a - s for a, s in zip(answered, sent)]
    assert all(abs(x - 0.005) < 1e-12 for x in from_send)
    # The first request waited the whole stall; one due at the end of it
    # did not wait at all.
    assert latencies[0] == pytest.approx(0.105)
    assert latencies[10] == pytest.approx(0.005)
    assert latencies == pytest.approx([s - d + 0.005 for s, d in zip(sent, due)])


def test_due_time_latency_leaves_out_unanswered_requests():
    assert due_time_latencies([0.0, 1.0, 2.0], [0.5, None, 2.25]) == [0.5, 0.25]
    with pytest.raises(ValueError):
        due_time_latencies([0.0], [])
