package guest

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/hw"
)

// FS is the kernel's in-memory filesystem with a page cache backed by
// simulated physical frames and a block device underneath. Writes are
// buffered in the cache and flushed in batches (writeback), so the
// block driver — native or split frontend — sees realistic request
// streams.
type FS struct {
	k  *Kernel
	mu sync.Mutex
	// bufMu guards the bytes of every page-cache frame: a write into a
	// cached page and the block driver's writeback copy of it never
	// overlap. No Charge runs under it.
	bufMu sync.Mutex

	root    *Inode
	nextIno uint64
	// nextBlock allocates disk blocks; sequential appends to one file
	// get contiguous blocks, so the block layer can merge.
	nextBlock uint64

	dirty      map[*Inode]map[int]bool
	dirtyCount int
	// WritebackThreshold is the dirty-page count that triggers a flush.
	WritebackThreshold int

	Stats FSStats
}

// FSStats counts filesystem activity.
type FSStats struct {
	CacheMisses uint64
}

// Inode is one file or directory.
type Inode struct {
	Ino  uint64
	Name string
	Dir  bool

	children map[string]*Inode

	Size   int // bytes
	pages  map[int]*cachePage
	blocks map[int]uint64
	nlink  int
}

type cachePage struct {
	pfn   hw.PFN
	dirty bool
}

// File is an open file description.
type File struct {
	Ino *Inode
	Off int
}

// NewFS builds an empty filesystem.
func NewFS(k *Kernel) *FS {
	fs := &FS{
		k:                  k,
		nextIno:            2,
		nextBlock:          1,
		dirty:              make(map[*Inode]map[int]bool),
		WritebackThreshold: 256,
	}
	fs.root = &Inode{Ino: 1, Name: "/", Dir: true, children: make(map[string]*Inode), nlink: 1}
	return fs
}

// lookup walks path from the root. Caller holds fs.mu.
func (fs *FS) lookup(path string) (*Inode, error) {
	if path == "/" || path == "" {
		return fs.root, nil
	}
	cur := fs.root
	for _, part := range strings.Split(strings.Trim(path, "/"), "/") {
		if !cur.Dir {
			return nil, fmt.Errorf("fs: %s: not a directory", cur.Name)
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, fmt.Errorf("fs: %s: no such file", path)
		}
		cur = next
	}
	return cur, nil
}

// splitDir returns the parent directory inode and final name component.
func (fs *FS) splitDir(path string) (*Inode, string, error) {
	i := strings.LastIndex(strings.TrimRight(path, "/"), "/")
	dirPath, name := path[:i], strings.Trim(path[i+1:], "/")
	if name == "" {
		return nil, "", fmt.Errorf("fs: empty name in %q", path)
	}
	dir, err := fs.lookup(dirPath)
	if err != nil {
		return nil, "", err
	}
	if !dir.Dir {
		return nil, "", fmt.Errorf("fs: %s: not a directory", dirPath)
	}
	return dir, name, nil
}

// Create makes a new empty file, replacing any existing one.
func (fs *FS) Create(c *hw.CPU, path string) (*Inode, error) {
	c.Charge(fs.k.M.Costs.PageCacheLookup) // dentry work
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, name, err := fs.splitDir(path)
	if err != nil {
		return nil, err
	}
	var freed []hw.PFN
	if _, exists := dir.children[name]; exists {
		// O_CREAT semantics: the old file is replaced; release its name
		// (and pages, if this was the last link).
		freed, err = fs.unlinkLocked(c, dir, name)
		if err != nil {
			return nil, err
		}
	}
	ino := &Inode{
		Ino: fs.nextIno, Name: name,
		pages: make(map[int]*cachePage), blocks: make(map[int]uint64), nlink: 1,
	}
	fs.nextIno++
	dir.children[name] = ino
	for _, pfn := range freed {
		fs.k.unrefPage(pfn) // touches only page accounting, not fs.mu
	}
	return ino, nil
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(c *hw.CPU, path string) (*Inode, error) {
	c.Charge(fs.k.M.Costs.PageCacheLookup)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, name, err := fs.splitDir(path)
	if err != nil {
		return nil, err
	}
	ino := &Inode{Ino: fs.nextIno, Name: name, Dir: true,
		children: make(map[string]*Inode), nlink: 1}
	fs.nextIno++
	dir.children[name] = ino
	return ino, nil
}

// Open returns a file handle for path.
func (fs *FS) Open(c *hw.CPU, path string) (*File, error) {
	c.Charge(fs.k.M.Costs.PageCacheLookup)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	return &File{Ino: ino}, nil
}

// Stat charges the metadata lookup and returns size.
func (fs *FS) Stat(c *hw.CPU, path string) (int, error) {
	c.Charge(fs.k.M.Costs.PageCacheLookup)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.lookup(path)
	if err != nil {
		return 0, err
	}
	return ino.Size, nil
}

// Unlink removes one name for a file; its cache pages and blocks are
// released with the last link.
func (fs *FS) Unlink(c *hw.CPU, path string) error {
	c.Charge(fs.k.M.Costs.PageCacheLookup)
	fs.mu.Lock()
	dir, name, err := fs.splitDir(path)
	if err != nil {
		fs.mu.Unlock()
		return err
	}
	frames, err := fs.unlinkLocked(c, dir, name)
	if err != nil {
		fs.mu.Unlock()
		return fmt.Errorf("fs: %s: %w", path, err)
	}
	fs.mu.Unlock()
	for _, pfn := range frames {
		fs.k.unrefPage(pfn)
	}
	return nil
}

// cachePage returns the frame caching page idx of ino, reading it from
// disk (or zero-filling) on a miss. The frame stays referenced by the FS.
func (k *Kernel) cachePage(c *hw.CPU, ino *Inode, idx int) hw.PFN {
	fs := k.FS
	c.Charge(k.M.Costs.PageCacheLookup)
	fs.mu.Lock()
	if pg, ok := ino.pages[idx]; ok {
		fs.mu.Unlock()
		return pg.pfn
	}
	fs.Stats.CacheMisses++
	blk, onDisk := ino.blocks[idx]
	fs.mu.Unlock()

	pfn := k.allocFrame(c, !onDisk)
	k.refPage(pfn)
	if onDisk {
		k.Blk.Submit(c, []BlockReq{{Block: blk, PFN: pfn}})
	}
	fs.mu.Lock()
	ino.pages[idx] = &cachePage{pfn: pfn}
	fs.mu.Unlock()
	return pfn
}

// WriteAt writes n bytes at offset off into ino through the page cache.
func (fs *FS) WriteAt(c *hw.CPU, ino *Inode, off, n int) {
	k := fs.k
	for n > 0 {
		idx := off >> hw.PageShift
		pgOff := off & hw.PageMask
		chunk := hw.PageSize - pgOff
		if chunk > n {
			chunk = n
		}
		pfn := k.cachePage(c, ino, idx)
		// Copy user bytes into the cache frame (contents are a marker
		// pattern; the cost is what matters).
		c.Charge(hw.Cycles(chunk) * k.M.Costs.PageCopy / hw.PageSize)
		fb := k.M.Mem.FrameBytes(pfn)
		fs.bufMu.Lock()
		for i := 0; i < chunk; i += 256 {
			fb[(pgOff+i)%hw.PageSize] = byte(off + i)
		}
		fs.bufMu.Unlock()
		fs.mu.Lock()
		pg := ino.pages[idx]
		if !pg.dirty {
			pg.dirty = true
			if fs.dirty[ino] == nil {
				fs.dirty[ino] = make(map[int]bool)
			}
			fs.dirty[ino][idx] = true
			fs.dirtyCount++
		}
		if off+chunk > ino.Size {
			ino.Size = off + chunk
		}
		over := fs.dirtyCount >= fs.WritebackThreshold
		fs.mu.Unlock()
		if over {
			fs.Writeback(c)
		}
		off += chunk
		n -= chunk
	}
}

// ReadAt reads n bytes at offset off from ino through the page cache.
// Returns the number of bytes actually available.
func (fs *FS) ReadAt(c *hw.CPU, ino *Inode, off, n int) int {
	k := fs.k
	fs.mu.Lock()
	if off >= ino.Size {
		fs.mu.Unlock()
		return 0
	}
	if off+n > ino.Size {
		n = ino.Size - off
	}
	fs.mu.Unlock()
	rem := n
	for rem > 0 {
		idx := off >> hw.PageShift
		pgOff := off & hw.PageMask
		chunk := hw.PageSize - pgOff
		if chunk > rem {
			chunk = rem
		}
		_ = k.cachePage(c, ino, idx)
		c.Charge(hw.Cycles(chunk) * k.M.Costs.PageCopy / hw.PageSize)
		off += chunk
		rem -= chunk
	}
	return n
}

// Writeback flushes every dirty page, sorted by disk block so the block
// layer can merge contiguous runs.
func (fs *FS) Writeback(c *hw.CPU) {
	k := fs.k
	fs.mu.Lock()
	type flushPage struct {
		ino *Inode
		idx int
	}
	var pages []flushPage
	for ino, idxs := range fs.dirty {
		for idx := range idxs {
			pages = append(pages, flushPage{ino, idx})
		}
	}
	fs.dirty = make(map[*Inode]map[int]bool)
	fs.dirtyCount = 0
	if len(pages) == 0 {
		fs.mu.Unlock()
		return
	}
	reqs := make([]BlockReq, 0, len(pages))
	for _, fp := range pages {
		pg := fp.ino.pages[fp.idx]
		if pg == nil {
			continue // unlinked while dirty
		}
		pg.dirty = false
		blk, ok := fp.ino.blocks[fp.idx]
		if !ok {
			blk = fs.nextBlock
			fs.nextBlock++
			fp.ino.blocks[fp.idx] = blk
		}
		reqs = append(reqs, BlockReq{Block: blk, Write: true, PFN: pg.pfn})
	}
	fs.mu.Unlock()
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Block < reqs[j].Block })
	k.Blk.Submit(c, reqs)
}

// Close releases a file handle.
func (fs *FS) Close(c *hw.CPU, f *File) {
	c.Charge(fs.k.M.Costs.MemWrite * 4)
}

// Sync flushes all dirty state.
func (fs *FS) Sync(c *hw.CPU) { fs.Writeback(c) }

// DropCache evicts an inode's clean cached pages, returning the frames
// for the caller to unreference (memory-pressure reclaim; also used to
// force re-reads from disk in tests). Dirty pages are kept.
func (fs *FS) DropCache(ino *Inode) []hw.PFN {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []hw.PFN
	for idx, pg := range ino.pages {
		if pg.dirty {
			continue
		}
		if _, onDisk := ino.blocks[idx]; !onDisk {
			continue // never written out: dropping would lose data
		}
		out = append(out, pg.pfn)
		delete(ino.pages, idx)
	}
	return out
}

// imageFile returns (creating and pre-caching on first use) the backing
// file for a program image; its cached text pages are shared by every
// process running that image.
func (fs *FS) imageFile(c *hw.CPU, img Image) *Inode {
	path := "/bin/" + img.Name
	fs.mu.Lock()
	bin, err := fs.lookup("/bin")
	fs.mu.Unlock()
	if err != nil {
		if bin, err = fs.Mkdir(c, "/bin"); err != nil {
			panic(err)
		}
	}
	_ = bin
	fs.mu.Lock()
	ino, err := fs.lookup(path)
	fs.mu.Unlock()
	if err == nil {
		return ino
	}
	ino, err = fs.Create(c, path)
	if err != nil {
		panic(err)
	}
	k := fs.k
	for i := 0; i < img.TextPages; i++ {
		pfn := k.allocFrame(c, true)
		k.refPage(pfn)
		fs.mu.Lock()
		ino.pages[i] = &cachePage{pfn: pfn}
		ino.Size = (i + 1) * hw.PageSize
		fs.mu.Unlock()
	}
	return ino
}

// --- process-level file syscalls ---

// Open opens path, returning a file descriptor.
func (p *Proc) Open(path string) (int, error) {
	k := p.K
	var f *File
	var err error
	p.Syscall(func(c *hw.CPU) { f, err = k.FS.Open(c, path) })
	if err != nil {
		return -1, err
	}
	return p.installFD(f), nil
}

// Creat creates (or truncates) path and opens it.
func (p *Proc) Creat(path string) (int, error) {
	k := p.K
	var ino *Inode
	var err error
	p.Syscall(func(c *hw.CPU) { ino, err = k.FS.Create(c, path) })
	if err != nil {
		return -1, err
	}
	return p.installFD(&File{Ino: ino}), nil
}

func (p *Proc) installFD(f *File) int {
	for i, slot := range p.fds {
		if slot == nil {
			p.fds[i] = f
			return i
		}
	}
	p.fds = append(p.fds, f)
	return len(p.fds) - 1
}

func (p *Proc) file(fd int) *File {
	if fd < 0 || fd >= len(p.fds) || p.fds[fd] == nil {
		panic(fmt.Sprintf("guest: bad fd %d in proc %d", fd, p.Pid))
	}
	return p.fds[fd]
}

// Write writes n bytes at the current offset.
func (p *Proc) Write(fd, n int) {
	k := p.K
	f := p.file(fd)
	p.Syscall(func(c *hw.CPU) {
		k.FS.WriteAt(c, f.Ino, f.Off, n)
		f.Off += n
	})
}

// Read reads up to n bytes at the current offset, returning the count.
func (p *Proc) Read(fd, n int) int {
	k := p.K
	f := p.file(fd)
	var got int
	p.Syscall(func(c *hw.CPU) {
		got = k.FS.ReadAt(c, f.Ino, f.Off, n)
		f.Off += got
	})
	return got
}

// Seek sets the file offset.
func (p *Proc) Seek(fd, off int) {
	f := p.file(fd)
	p.Syscall(func(c *hw.CPU) { f.Off = off })
}

// Close closes a descriptor.
func (p *Proc) Close(fd int) {
	k := p.K
	f := p.file(fd)
	p.fds[fd] = nil
	p.Syscall(func(c *hw.CPU) { k.FS.Close(c, f) })
}

// Unlink removes a file.
func (p *Proc) Unlink(path string) error {
	k := p.K
	var err error
	p.Syscall(func(c *hw.CPU) { err = k.FS.Unlink(c, path) })
	return err
}

// Stat queries file metadata.
func (p *Proc) Stat(path string) (int, error) {
	k := p.K
	var n int
	var err error
	p.Syscall(func(c *hw.CPU) { n, err = k.FS.Stat(c, path) })
	return n, err
}
