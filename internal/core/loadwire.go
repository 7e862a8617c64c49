package core

import (
	"fmt"
	"strconv"
)

// Compact load wire encoding. JSON round-tripping every rstat()-style
// load poll costs an encoder allocation and reflection walk on the node
// plus a decoder on the master, several times per second per node. The
// /load endpoint therefore serves one fixed-field line,
//
//	l1 <cpu_idle> <disk_avail> <cpu_queue> <disk_queue> <speed>\n
//
// appended and parsed with strconv only — no maps, no reflection, no
// intermediate strings.

// LoadWireContentType is the MIME type of the compact encoding.
const LoadWireContentType = "text/x-msweb-load"

// loadWirePrefix introduces (and versions) a compact load line.
const loadWirePrefix = "l1 "

// AppendWire appends the compact v1 encoding of l to b and returns the
// extended slice. It never allocates when b has capacity (~64 bytes).
func (l Load) AppendWire(b []byte) []byte {
	b = append(b, loadWirePrefix...)
	b = strconv.AppendFloat(b, l.CPUIdle, 'g', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, l.DiskAvail, 'g', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(l.CPUQueue), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(l.DiskQueue), 10)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, l.Speed, 'g', -1, 64)
	b = append(b, '\n')
	return b
}

// IsLoadWire reports whether b starts a compact load line.
func IsLoadWire(b []byte) bool {
	return len(b) >= len(loadWirePrefix) && string(b[:len(loadWirePrefix)]) == loadWirePrefix
}

// ParseLoadWire decodes a compact v1 load line (with or without the
// trailing newline).
func ParseLoadWire(b []byte) (Load, error) {
	var l Load
	if !IsLoadWire(b) {
		return l, fmt.Errorf("core: load wire: missing %q prefix", loadWirePrefix)
	}
	rest := b[len(loadWirePrefix):]
	if n := len(rest); n > 0 && rest[n-1] == '\n' {
		rest = rest[:n-1]
	}
	var err error
	for i := 0; i < 5; i++ {
		// Take the next space-delimited field without allocating.
		j := 0
		for j < len(rest) && rest[j] != ' ' {
			j++
		}
		field := rest[:j]
		if len(field) == 0 {
			return Load{}, fmt.Errorf("core: load wire: missing field %d", i)
		}
		switch i {
		case 0:
			l.CPUIdle, err = strconv.ParseFloat(string(field), 64)
		case 1:
			l.DiskAvail, err = strconv.ParseFloat(string(field), 64)
		case 2:
			l.CPUQueue, err = strconv.Atoi(string(field))
		case 3:
			l.DiskQueue, err = strconv.Atoi(string(field))
		case 4:
			l.Speed, err = strconv.ParseFloat(string(field), 64)
		}
		if err != nil {
			return Load{}, fmt.Errorf("core: load wire: field %d: %v", i, err)
		}
		if j < len(rest) {
			j++
		}
		rest = rest[j:]
	}
	if len(rest) != 0 {
		return Load{}, fmt.Errorf("core: load wire: trailing garbage %q", rest)
	}
	return l, nil
}

// ApplyReport merges a freshly reported load into the view's slot for
// node id, preserving the previously known Speed when the report omits
// it (Speed <= 0). This is the single merge rule for every report
// source — the master's /load poller and the piggybacked reports that
// ride on /exec and /req responses — so the two paths cannot drift.
func (v *View) ApplyReport(id int, l Load) {
	if id < 0 || id >= len(v.Load) {
		return
	}
	if l.Speed <= 0 {
		l.Speed = v.Load[id].Speed
	}
	v.Load[id] = l
}

// Snapshot returns an independent deep copy of the view's role and load
// slices (the Affinity map is shared; it is read-only after
// construction). The live cluster publishes these behind an atomic
// pointer: readers see either the old or the new snapshot, never a
// half-updated one.
func (v *View) Snapshot() *View {
	return &View{
		Now:      v.Now,
		Masters:  append([]int(nil), v.Masters...),
		Slaves:   append([]int(nil), v.Slaves...),
		Load:     append([]Load(nil), v.Load...),
		Affinity: v.Affinity,
	}
}
