package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"lumos5g/internal/dataset"
	"lumos5g/internal/env"
	"lumos5g/internal/rng"
)

// checkpointVersion is bumped whenever the Checkpoint schema or the shard
// enumeration order changes incompatibly.
const checkpointVersion = 1

var (
	// ErrCheckpointCorrupt marks a checkpoint whose JSON or checksum is
	// damaged.
	ErrCheckpointCorrupt = errors.New("checkpoint corrupt")
	// ErrCheckpointMismatch marks a checkpoint written by a different
	// campaign configuration (or whose output file no longer matches it).
	ErrCheckpointMismatch = errors.New("checkpoint mismatch")
)

// Checkpoint is the durable progress record of a resumable campaign run:
// how many shards are already in the output file, how long that file is,
// and the stationary-stream RNG state of every area touched so far. It is
// written atomically after every shard, so a killed run loses at most the
// shard it was generating.
type Checkpoint struct {
	Version   int                  `json:"version"`
	ConfigTag string               `json:"config_tag"`
	NextShard int                  `json:"next_shard"`
	OutBytes  int64                `json:"out_bytes"`
	Rows      int                  `json:"rows"`
	Dropped   int                  `json:"dropped"`
	StillRNG  map[string]rng.State `json:"still_rng"`
	Checksum  uint32               `json:"checksum"`
}

// ResumeOptions tunes RunCampaignResumable.
type ResumeOptions struct {
	// Clean applies the §3.1 quality filter shard by shard. Per-shard
	// filtering equals whole-dataset filtering because every filter rule
	// is scoped to a single trace (one shard) or a single record.
	Clean bool
	// OnShard, if set, is called after each shard is durably written with
	// the number of shards done and the total.
	OnShard func(done, total int)
	// Workers is the number of shard-simulation goroutines; <=0 means one
	// per CPU. Shards run concurrently but are written (and checkpointed)
	// in canonical order, so the output file is byte-identical for every
	// worker count.
	Workers int
}

// RunResult reports how a resumable run ended.
type RunResult struct {
	// Completed is false when the context was cancelled; the checkpoint
	// is then left on disk for a later resume.
	Completed bool
	// Resumed is true when the run picked up an existing checkpoint.
	Resumed bool
	// Rows is the number of CSV data rows written so far.
	Rows int
	// Dropped is the number of records removed by the quality filter.
	Dropped int
}

// CampaignShards enumerates every shard of a campaign over the given
// areas (nil means all areas) in canonical execution order.
func CampaignShards(areas []*env.Area, cfg Config) []Shard {
	if areas == nil {
		areas = env.AllAreas()
	}
	var shards []Shard
	for _, a := range areas {
		shards = append(shards, AreaShards(a, cfg)...)
	}
	return shards
}

// configTag fingerprints everything that determines the byte stream a run
// produces; a checkpoint only resumes a run with the identical tag.
func configTag(areas []*env.Area, cfg Config, clean bool) string {
	names := make([]string, len(areas))
	for i, a := range areas {
		names[i] = a.Name
	}
	return fmt.Sprintf("v%d seed=%d walk=%d drive=%d still=%d bg=%g clean=%t areas=%s",
		checkpointVersion, cfg.Seed, cfg.WalkPasses, cfg.DrivePasses,
		cfg.StationarySessions, cfg.BackgroundUEProb, clean,
		strings.Join(names, ","))
}

// encodeCheckpoint marshals cp with its checksum computed over the JSON
// encoding taken with Checksum zeroed.
func encodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	cp.Checksum = 0
	base, err := json.Marshal(cp)
	if err != nil {
		return nil, err
	}
	cp.Checksum = crc32.ChecksumIEEE(base)
	return json.Marshal(cp)
}

// writeCheckpoint persists cp atomically (tmp + rename in the target
// directory).
func writeCheckpoint(path string, cp *Checkpoint) error {
	data, err := encodeCheckpoint(cp)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".checkpoint-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadCheckpoint reads and verifies a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("sim: %w: %v", ErrCheckpointCorrupt, err)
	}
	sum := cp.Checksum
	// encodeCheckpoint recomputes Checksum over the zeroed-checksum form.
	if _, err := encodeCheckpoint(&cp); err != nil {
		return nil, fmt.Errorf("sim: %w: %v", ErrCheckpointCorrupt, err)
	}
	if cp.Checksum != sum {
		return nil, fmt.Errorf("sim: %w: checksum %08x, want %08x", ErrCheckpointCorrupt, sum, cp.Checksum)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("sim: %w: version %d, want %d", ErrCheckpointMismatch, cp.Version, checkpointVersion)
	}
	return &cp, nil
}

// RunCampaignResumable generates the campaign into outPath, writing a
// checkpoint to cpPath after every shard. If cpPath already holds a valid
// checkpoint for the same configuration, generation resumes from the
// first unwritten shard — truncating outPath back to the last durable
// byte and restoring the per-area stationary RNG streams — and the
// resulting file is byte-identical to an uninterrupted run. Cancelling
// ctx stops between shards with Completed=false and the checkpoint left
// in place; on successful completion the checkpoint is removed.
func RunCampaignResumable(ctx context.Context, cfg Config, areas []*env.Area,
	outPath, cpPath string, opt ResumeOptions) (RunResult, error) {

	if areas == nil {
		areas = env.AllAreas()
	}
	shards := CampaignShards(areas, cfg)
	tag := configTag(areas, cfg, opt.Clean)

	cp := &Checkpoint{Version: checkpointVersion, ConfigTag: tag, StillRNG: map[string]rng.State{}}
	var res RunResult
	var out *os.File
	if prev, err := LoadCheckpoint(cpPath); err == nil {
		if prev.ConfigTag != tag {
			return res, fmt.Errorf("sim: %w: checkpoint tag %q, run tag %q", ErrCheckpointMismatch, prev.ConfigTag, tag)
		}
		if prev.NextShard > len(shards) {
			return res, fmt.Errorf("sim: %w: checkpoint shard %d of %d", ErrCheckpointMismatch, prev.NextShard, len(shards))
		}
		out, err = os.OpenFile(outPath, os.O_RDWR, 0o644)
		if err != nil {
			return res, fmt.Errorf("sim: resume: %w", err)
		}
		st, err := out.Stat()
		if err != nil {
			out.Close()
			return res, err
		}
		if st.Size() < prev.OutBytes {
			out.Close()
			return res, fmt.Errorf("sim: %w: output is %d bytes, checkpoint recorded %d", ErrCheckpointMismatch, st.Size(), prev.OutBytes)
		}
		// Drop any bytes from the shard that was in flight when the
		// previous run died.
		if err := out.Truncate(prev.OutBytes); err != nil {
			out.Close()
			return res, err
		}
		if _, err := out.Seek(prev.OutBytes, io.SeekStart); err != nil {
			out.Close()
			return res, err
		}
		cp = prev
		res.Resumed = true
	} else if !errors.Is(err, os.ErrNotExist) {
		return res, err
	} else {
		out, err = os.Create(outPath)
		if err != nil {
			return res, err
		}
	}
	defer out.Close()

	w := dataset.NewCSVWriter(out)
	if !res.Resumed {
		if err := w.WriteHeader(); err != nil {
			return res, err
		}
		if err := w.Flush(); err != nil {
			return res, err
		}
	}

	res.Rows, res.Dropped = cp.Rows, cp.Dropped
	// Shards simulate on the worker pipeline; this emit callback — always
	// called in shard order, with the stationary-stream state the shard
	// left behind — is the serial loop's durable-write step unchanged.
	completed, err := runShardsOrdered(ctx, areas, cfg, shards, cp.NextShard, cp.StillRNG, opt.Workers,
		func(i int, sh Shard, recs []dataset.Record, still rng.State) error {
			if opt.Clean {
				shardSet := &dataset.Dataset{Records: recs}
				clean, dropped := shardSet.QualityFilter()
				recs = clean.Records
				res.Dropped += dropped
			}
			if err := w.Append(recs...); err != nil {
				return err
			}
			if err := w.Flush(); err != nil {
				return err
			}
			if err := out.Sync(); err != nil {
				return err
			}
			pos, err := out.Seek(0, io.SeekCurrent)
			if err != nil {
				return err
			}
			res.Rows += len(recs)
			cp.NextShard = i + 1
			cp.OutBytes = pos
			cp.Rows, cp.Dropped = res.Rows, res.Dropped
			cp.StillRNG[sh.Area] = still
			if err := writeCheckpoint(cpPath, cp); err != nil {
				return err
			}
			if opt.OnShard != nil {
				opt.OnShard(i+1, len(shards))
			}
			return nil
		})
	if err != nil {
		return res, err
	}
	if !completed {
		return res, nil // checkpoint already covers everything written
	}
	if err := os.Remove(cpPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return res, err
	}
	res.Completed = true
	return res, nil
}
