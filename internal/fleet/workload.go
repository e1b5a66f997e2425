// Package fleet runs N simulated machines as a supervised,
// request-serving service: machines are sharded across host
// goroutines, driven by an open-loop deterministic load generator,
// swept by fleet-wide configuration-flip storms that Commit on every
// shard, and kept alive by a per-shard supervisor that restarts
// faulted machines from their last periodic snapshot, degrades to the
// old variant when a commit storm cannot land, and live-migrates
// machines between shards by snapshot transfer.
//
// Everything the fleet does is a deterministic function of
// (Config.Seed, machine id, round): batch sizes, request payloads,
// flip values, fault plans and kill schedules all derive from a
// splitmix64 hash, never from host time or host randomness. That is
// what makes the robustness claims testable — a machine killed
// mid-run and restored from its snapshot replays the rounds it lost
// and must land on the byte-identical final snapshot an unkilled run
// produces.
package fleet

// GuestSource is the per-machine guest program: an E1/E4-style
// request server with two multiverse-controlled feature flags. The
// compression level selects the reply encoder variant; the tenant
// isolation mode selects whether per-tenant state is partitioned or
// shared. Both are classic fixed-after-reconfiguration switches: the
// fleet's config-flip storms rebind them at runtime via Commit.
const GuestSource = `
	multiverse(0, 1, 2) int compression;
	multiverse int isolated;

	ulong requests;
	ulong reply_bytes;
	ulong checksum;
	ulong tenant_state[16];

	// encode is the reply encoder: identity, fast fold, or the
	// full FNV-style mix, selected by the compression level.
	multiverse ulong encode(ulong v) {
		if (compression == 2) {
			ulong acc = v;
			acc = acc ^ (acc >> 13);
			acc = acc * 1099511628211;
			acc = acc ^ (acc >> 7);
			return acc;
		}
		if (compression == 1) {
			return v ^ (v >> 17);
		}
		return v;
	}

	// tenant_slot maps a request's tenant to its state cell: its own
	// cell under isolation, the shared cell 0 otherwise.
	multiverse ulong tenant_slot(ulong t) {
		if (isolated) {
			return t & 15;
		}
		return 0;
	}

	ulong serve_one(ulong payload) {
		ulong r = encode(payload);
		ulong slot = tenant_slot(payload >> 4);
		tenant_state[slot] = tenant_state[slot] + (r & 255);
		requests = requests + 1;
		reply_bytes = reply_bytes + ((r & 63) + 1);
		return r;
	}

	// serve_batch drains one load-generator batch: n requests with
	// payloads from a seeded xorshift-free LCG stream.
	ulong serve_batch(ulong n, ulong seed) {
		ulong x = seed;
		ulong acc = 0;
		ulong i;
		for (i = 0; i < n; i++) {
			x = x * 6364136223846793005 + 1442695040888963407;
			acc = acc ^ serve_one(x);
		}
		checksum = checksum ^ acc;
		return acc;
	}

	ulong health(void) { return 4242; }
`

// healthOK is the liveness magic health() must return.
const healthOK = 4242

// mix folds its arguments through splitmix64 — the fleet's only
// source of "randomness", so every schedule is a pure function of the
// seed and replays bit-identically.
func mix(vs ...uint64) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return x
}

// Schedule tags: distinct stream selectors for mix so the batch-size,
// payload, flip and kill streams are independent.
const (
	tagBatch = 0xba7c4
	tagArg   = 0xa46
	tagComp  = 0xc0317
	tagIso   = 0x15014
	tagKill  = 0x4b11
)

// batchSize is the open-loop load generator: how many requests the
// generator hands machine id in round r.
func (c *Config) batchSize(id, round int) uint64 {
	spread := uint64(c.BatchMax - c.BatchMin + 1)
	return uint64(c.BatchMin) + mix(uint64(c.Seed), tagBatch, uint64(id), uint64(round))%spread
}

// batchArg is the payload-stream seed for machine id in round r.
func (c *Config) batchArg(id, round int) uint64 {
	return mix(uint64(c.Seed), tagArg, uint64(id), uint64(round))
}

// flipValues is the fleet-wide storm schedule: the configuration the
// storm at round r drives every machine toward.
func (c *Config) flipValues(round int) (compression, isolated int64) {
	return int64(mix(uint64(c.Seed), tagComp, uint64(round)) % 3),
		int64(mix(uint64(c.Seed), tagIso, uint64(round)) % 2)
}

// scheduledRequests is the analytic total of requests the load
// generator offers machine id across the whole run — the number a
// zero-loss fleet must have served at the end, however many restarts
// and replays it took to get there.
func (c *Config) scheduledRequests(id int) uint64 {
	var total uint64
	for r := 1; r <= c.Rounds; r++ {
		total += c.batchSize(id, r)
	}
	return total
}
