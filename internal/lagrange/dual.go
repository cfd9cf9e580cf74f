package lagrange

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// DualSite is one multiplier of a block: the candidate index it prices
// — every use site of that index within the block shares it, the
// (statement, index) linking constraint of relax(B) — and its value.
// Index is the candidate's position in the exporting model's numbering.
// The JSON tags of DualSite and DualBlock spell the array form older
// binaries wrote, which Dual.UnmarshalJSON still reads.
type DualSite struct {
	Index int32   `json:"index"`
	Value float64 `json:"value"`
}

// DualBlock is one block's multipliers under the block's label (the
// statement's stable ID), which is how a later solve finds them again
// across workload deltas.
type DualBlock struct {
	ID    string     `json:"id,omitempty"`
	Sites []DualSite `json:"sites"`
}

// Dual is the dual state of a solve, one DualBlock per model block in
// block order. It is the one form the state takes everywhere: what
// Solve returns (Result.Lambda) and accepts (Options.Warm), what a
// session keeps between solves, and — in the packed form of
// MarshalText — what the daemon writes to its WAL and snapshots. A Dual
// is immutable once returned: the solver copies out of it and never
// writes into it, so holders may share it freely. The empty Dual is a cold start.
type Dual []DualBlock

// Remap translates the dual state through a candidate renumbering:
// perm[old] is the new position of candidate old, or a negative value
// when the candidate was dropped — its sites are discarded. Positions
// beyond perm are likewise dropped. Block labels are preserved, so a
// compacted session still matches blocks across workload deltas. The
// receiver is unchanged.
func (d Dual) Remap(perm []int32) Dual {
	out := make(Dual, len(d))
	for bi, b := range d {
		sites := make([]DualSite, 0, len(b.Sites))
		for _, site := range b.Sites {
			if site.Index < 0 || int(site.Index) >= len(perm) || perm[site.Index] < 0 {
				continue
			}
			sites = append(sites, DualSite{Index: perm[site.Index], Value: site.Value})
		}
		out[bi] = DualBlock{ID: b.ID, Sites: sites}
	}
	return out
}

// MarshalText writes the dual state in its packed wire form: std-base64
// of a uvarint block count, then per block a uvarint ID length, the ID
// bytes and a uvarint site count, then per site a uvarint tag
// uint32(Index)<<1 | (value bits ≠ 0), followed by the value's 8
// little-endian IEEE-754 bytes only when that bit is set. Every bit
// survives, −0 and NaN payloads included; a nil Dual writes the empty
// string. encoding/json quotes the text as a JSON string.
func (d Dual) MarshalText() ([]byte, error) {
	if d == nil {
		return []byte{}, nil
	}
	raw := binary.AppendUvarint(nil, uint64(len(d)))
	for _, b := range d {
		raw = binary.AppendUvarint(raw, uint64(len(b.ID)))
		raw = append(raw, b.ID...)
		raw = binary.AppendUvarint(raw, uint64(len(b.Sites)))
		for _, site := range b.Sites {
			tag, bits := uint64(uint32(site.Index))<<1, math.Float64bits(site.Value)
			if bits != 0 {
				tag |= 1
			}
			raw = binary.AppendUvarint(raw, tag)
			if bits != 0 {
				raw = binary.LittleEndian.AppendUint64(raw, bits)
			}
		}
	}
	out := make([]byte, base64.StdEncoding.EncodedLen(len(raw)))
	base64.StdEncoding.Encode(out, raw)
	return out, nil
}

// UnmarshalText reads the packed form MarshalText writes. The empty
// text is the nil Dual. Malformed input — not base64, truncated,
// trailing bytes, an index wider than 32 bits — is an error, and no
// count is trusted beyond the bytes left to back it.
func (d *Dual) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*d = nil
		return nil
	}
	raw := make([]byte, base64.StdEncoding.DecodedLen(len(text)))
	n, err := base64.StdEncoding.Decode(raw, text)
	if err != nil {
		return fmt.Errorf("lagrange: dual state: %w", err)
	}
	out, err := unpackDual(raw[:n])
	if err != nil {
		return err
	}
	*d = out
	return nil
}

// UnmarshalJSON reads the JSON string MarshalText's text becomes, and
// also the array of blocks older binaries wrote (with or without the
// per-site "choice"/"slot" keys, which are ignored). null leaves the
// receiver unchanged, as encoding/json does for other types. The string
// is decoded as is: base64 needs no JSON escapes, so an escaped
// character is rejected like any other non-base64 byte.
func (d *Dual) UnmarshalJSON(data []byte) error {
	data = bytes.TrimSpace(data)
	switch {
	case len(data) > 0 && data[0] == '[':
		// Into a fresh slice: the receiver's old blocks may be shared.
		var blocks []DualBlock
		if err := json.Unmarshal(data, &blocks); err != nil {
			return err
		}
		*d = blocks
		return nil
	case string(data) == "null":
		return nil
	case len(data) >= 2 && data[0] == '"' && data[len(data)-1] == '"':
		return d.UnmarshalText(data[1 : len(data)-1])
	}
	return errors.New("lagrange: dual state is neither a string nor an array")
}

var errPackedDual = errors.New("lagrange: dual state: truncated or malformed packed data")

// unpackDual decodes the packed layout of MarshalText (after base64).
func unpackDual(b []byte) (Dual, error) {
	// A block takes at least two bytes (ID length, site count).
	nb, b, ok := readCount(b, 2)
	if !ok {
		return nil, errPackedDual
	}
	d := make(Dual, nb)
	for bi := range d {
		var idLen, ns int
		if idLen, b, ok = readCount(b, 1); !ok {
			return nil, errPackedDual
		}
		d[bi].ID, b = string(b[:idLen]), b[idLen:]
		// A site takes at least one byte (its tag).
		if ns, b, ok = readCount(b, 1); !ok {
			return nil, errPackedDual
		}
		sites := make([]DualSite, ns)
		for k := range sites {
			tag, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errPackedDual
			}
			if tag>>33 != 0 {
				return nil, fmt.Errorf("lagrange: dual state: site index %d does not fit in 32 bits", tag>>1)
			}
			b = b[n:]
			sites[k].Index = int32(uint32(tag >> 1))
			if tag&1 != 0 {
				if len(b) < 8 {
					return nil, errPackedDual
				}
				sites[k].Value = math.Float64frombits(binary.LittleEndian.Uint64(b))
				b = b[8:]
			}
		}
		d[bi].Sites = sites
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("lagrange: dual state: %d trailing bytes", len(b))
	}
	return d, nil
}

// readCount reads a uvarint count of items that take at least per bytes
// each, refusing any count the bytes left after it cannot hold.
func readCount(b []byte, per int) (int, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 || v > uint64((len(b)-n)/per) {
		return 0, nil, false
	}
	return int(v), b[n:], true
}
