package hw

import (
	"bytes"
	"testing"
)

// TestDiskWriteAllocs pins the write paths a hole makes free: a zero
// write to a hole, a zero write over a stored block and a non-zero
// overwrite of a stored block allocate nothing. Only a non-zero write
// to a hole allocates, once, for the block's buffer.
func TestDiskWriteAllocs(t *testing.T) {
	const runs = 200
	m := testMachine(1)
	c := m.BootCPU()
	zero := make([]byte, BlockSize)
	data := bytes.Repeat([]byte{0x5a}, BlockSize)
	write := func(block uint64, buf []byte) {
		if err := m.Disk.Submit(c, DiskRequest{Block: block, Write: true, Blocks: 1}, buf); err != nil {
			t.Fatal(err)
		}
	}

	if a := testing.AllocsPerRun(runs, func() { write(1, zero) }); a != 0 {
		t.Errorf("zero write to a hole: %v allocs per write, want 0", a)
	}
	// AllocsPerRun calls its function runs+1 times; each call zeroes
	// the next of these stored blocks.
	next := uint64(100)
	for b := next; b <= next+runs; b++ {
		write(b, data)
	}
	if a := testing.AllocsPerRun(runs, func() { write(next, zero); next++ }); a != 0 {
		t.Errorf("zero write over a stored block: %v allocs per write, want 0", a)
	}
	write(2, data)
	if a := testing.AllocsPerRun(runs, func() { write(2, data) }); a != 0 {
		t.Errorf("non-zero overwrite of a stored block: %v allocs per write, want 0", a)
	}
	if n := len(m.Disk.blocks); n != 1 {
		t.Fatalf("disk stores %d blocks, want 1 (block 2)", n)
	}
}

// diskPattern fills one block of a fuzz request according to kind:
// 0 zeros, 1 every byte non-zero, 2 zeros but one byte, 3 zeros but
// the last byte.
func diskPattern(part []byte, kind, seed byte) {
	clear(part)
	v := seed | 1
	switch kind % 4 {
	case 1:
		for j := range part {
			part[j] = v + byte(j)%7*2
		}
	case 2:
		part[(int(seed)*37)%BlockSize] = v
	case 3:
		part[BlockSize-1] = v
	}
}

// FuzzDisk decodes its input into four-byte ops (kind, block, count,
// content) of single and multi-block writes and reads, zero, non-zero
// and partly zero, including overwrites, holes and buffers of the wrong
// length, against a map of the non-zero blocks. After every op the
// bytes read back, every DiskStats field and the blocks the disk stores
// must match the model, the disk storing exactly the model's non-zero
// blocks; scribbling over the caller's buffer after a transfer must not
// change the disk.
func FuzzDisk(f *testing.F) {
	// TestDiskReadBackAndMergedAccounting: a two-block non-zero write,
	// its read-back, a read of a hole and a short buffer.
	f.Add([]byte{0, 7, 1, 0x55, 1, 7, 1, 0, 1, 12, 0, 0, 5, 0, 1, 0})
	// A non-zero write, overwritten by a partly zero one, then by zeros.
	f.Add([]byte{0, 3, 0, 1, 0, 3, 0, 2, 0, 3, 0, 0, 1, 3, 0, 0})
	// Overlapping three-block writes of mixed content, then reads.
	f.Add([]byte{0, 2, 2, 0x39, 0, 3, 2, 0xc6, 1, 2, 2, 0, 1, 4, 2, 0, 4, 2, 2, 0})

	f.Fuzz(func(t *testing.T, ops []byte) {
		m := testMachine(1)
		c := m.BootCPU()
		d := m.Disk
		model := map[uint64][]byte{} // non-zero blocks only
		var want DiskStats
		for i := 0; i+3 < len(ops); i += 4 {
			kind, block, n, content := ops[i], uint64(ops[i+1]%16), int(ops[i+2]%3)+1, ops[i+3]
			write := kind%2 == 0
			size := n * BlockSize
			if kind%8 >= 4 { // wrong length: one short, one long, or empty
				size = [3]int{size - 1, size + BlockSize, 0}[int(content)%3]
			}
			buf := make([]byte, size)
			if write && size == n*BlockSize {
				for b := range n {
					diskPattern(buf[b*BlockSize:(b+1)*BlockSize], content>>(2*b), content+byte(b))
				}
			} else {
				for j := range buf {
					buf[j] = 0xa5 // a read must overwrite every byte
				}
			}

			err := d.Submit(c, DiskRequest{Block: block, Write: write, Blocks: n}, buf)
			if size != n*BlockSize {
				if err == nil {
					t.Fatalf("op %d: %d-byte buffer for %d blocks accepted", i/4, size, n)
				}
			} else {
				if err != nil {
					t.Fatalf("op %d: %v", i/4, err)
				}
				for b := range n {
					bn, part := block+uint64(b), buf[b*BlockSize:(b+1)*BlockSize]
					if write {
						if bytes.Equal(part, zeroPage[:]) {
							delete(model, bn)
						} else {
							model[bn] = bytes.Clone(part)
						}
						want.BytesWritten += BlockSize
						continue
					}
					wantPart := model[bn]
					if wantPart == nil {
						wantPart = zeroPage[:]
					}
					if !bytes.Equal(part, wantPart) {
						t.Fatalf("op %d: block %d read back differs from the model", i/4, bn)
					}
					want.BytesRead += BlockSize
				}
				want.Requests++
				want.BlocksIO += uint64(n)
			}
			for j := range buf {
				buf[j] ^= 0xff // the disk holds no reference to buf
			}

			if d.Stats != want {
				t.Fatalf("op %d: stats %+v, model %+v", i/4, d.Stats, want)
			}
			if len(d.blocks) != len(model) {
				t.Fatalf("op %d: disk stores %d blocks, model has %d non-zero", i/4, len(d.blocks), len(model))
			}
			for bn, b := range model {
				if !bytes.Equal(d.blocks[bn], b) {
					t.Fatalf("op %d: stored block %d differs from the model", i/4, bn)
				}
			}
		}
	})
}
