package dist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// This file persists measured per-operator profiles across runs: the
// planner (internal/plan) reads them to order commutative filter groups
// by real cost × selectivity instead of static hints, so every run plans
// from the previous runs' measurements. Profiles are keyed by operator
// identity (name + params hash), not plan position, so they survive
// recipe edits and reordering and may be shared by any recipe that uses
// the same operator with the same parameters.

// StoredProfile is one operator's persisted measurement.
type StoredProfile struct {
	// Key is the operator identity: its registered name plus a hash of
	// its recipe parameters (the same identity that keys the op cache).
	Key string `json:"key"`
	// Name is the human-readable operator name behind the key.
	Name string `json:"name"`
	// Runs counts how many runs have been folded into the profile.
	Runs int `json:"runs"`
	// CostNSPerSample is the EWMA processing cost of one input sample in
	// nanoseconds.
	CostNSPerSample float64 `json:"cost_ns_per_sample"`
	// Selectivity is the EWMA survival ratio Out/In (1.0 for mappers).
	Selectivity float64 `json:"selectivity"`
}

// profileFile is the JSON sidecar wire format.
type profileFile struct {
	Version  int             `json:"version"`
	Profiles []StoredProfile `json:"profiles"`
}

// profileSchemaVersion guards the sidecar format: a bump invalidates old
// sidecars instead of misreading them.
const profileSchemaVersion = 1

// ProfileSet holds the persisted profiles of one sidecar, keyed by
// operator identity. The zero value is not usable; construct with
// NewProfileSet or LoadProfiles.
type ProfileSet struct {
	profiles map[string]*StoredProfile
}

// NewProfileSet returns an empty set.
func NewProfileSet() *ProfileSet {
	return &ProfileSet{profiles: map[string]*StoredProfile{}}
}

// Len reports the number of stored profiles.
func (s *ProfileSet) Len() int { return len(s.profiles) }

// Lookup returns the profile stored under key.
func (s *ProfileSet) Lookup(key string) (StoredProfile, bool) {
	p, ok := s.profiles[key]
	if !ok {
		return StoredProfile{}, false
	}
	return *p, true
}

// profileAlpha is the EWMA smoothing factor Observe folds runs with.
const profileAlpha = 0.3

// Observe folds one run's measurement of an operator into the set with
// EWMA smoothing: recent runs dominate, single outliers do not.
// Non-positive costs carry no signal and are ignored.
func (s *ProfileSet) Observe(key, name string, costNS, selectivity float64) {
	if costNS <= 0 || selectivity < 0 {
		return
	}
	p, ok := s.profiles[key]
	if !ok {
		s.profiles[key] = &StoredProfile{
			Key: key, Name: name, Runs: 1,
			CostNSPerSample: costNS, Selectivity: selectivity,
		}
		return
	}
	p.Runs++
	p.CostNSPerSample = profileAlpha*costNS + (1-profileAlpha)*p.CostNSPerSample
	p.Selectivity = profileAlpha*selectivity + (1-profileAlpha)*p.Selectivity
}

// Export returns the stored profiles in deterministic key order, for
// shipping over the coordinator/worker wire protocol.
func (s *ProfileSet) Export() []StoredProfile {
	keys := make([]string, 0, len(s.profiles))
	for k := range s.profiles {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]StoredProfile, 0, len(keys))
	for _, k := range keys {
		out = append(out, *s.profiles[k])
	}
	return out
}

// FromProfiles rebuilds a set from exported profiles (the receive side of
// Export). Entries without a key are dropped, mirroring LoadProfiles.
func FromProfiles(profiles []StoredProfile) *ProfileSet {
	set := NewProfileSet()
	for i := range profiles {
		p := profiles[i]
		if p.Key == "" {
			continue
		}
		set.profiles[p.Key] = &p
	}
	return set
}

// LoadProfiles reads a profile sidecar. A missing file is not an error —
// it returns an empty set, the cold-start state every recipe begins in.
// A malformed or version-skewed sidecar is reported as an error so the
// caller can choose to plan statically instead of from garbage.
func LoadProfiles(path string) (*ProfileSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return NewProfileSet(), nil
		}
		return NewProfileSet(), err
	}
	var f profileFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return NewProfileSet(), fmt.Errorf("dist: profile sidecar %s: %w", path, err)
	}
	if f.Version != profileSchemaVersion {
		return NewProfileSet(), fmt.Errorf("dist: profile sidecar %s: version %d, want %d",
			path, f.Version, profileSchemaVersion)
	}
	set := NewProfileSet()
	for i := range f.Profiles {
		p := f.Profiles[i]
		if p.Key == "" {
			continue
		}
		set.profiles[p.Key] = &p
	}
	return set, nil
}

// SaveProfiles writes the set to its JSON sidecar atomically (temp file +
// rename), creating parent directories as needed.
func SaveProfiles(path string, s *ProfileSet) error {
	keys := make([]string, 0, len(s.profiles))
	for k := range s.profiles {
		keys = append(keys, k)
	}
	// Deterministic order keeps the sidecar diffable across runs.
	sort.Strings(keys)
	f := profileFile{Version: profileSchemaVersion}
	for _, k := range keys {
		f.Profiles = append(f.Profiles, *s.profiles[k])
	}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".profiles-*.json")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(raw, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
