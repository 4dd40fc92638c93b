// Package export implements the paper's client/server configuration
// (§2.2, Figure 3): remote, untrusted client machines that do not
// speak to Petal or the lock service directly can access a Frangipani
// file system through a file-access protocol served by a trusted
// Frangipani server machine — the role NFS/DCE-DFS played in the
// paper. The protocol here is a small stateless remote-file protocol
// in that spirit: every request names paths (or stable file handles),
// so clients can fail over between Frangipani servers exporting the
// same volume, and coherence across servers comes for free because
// each export server is just a local client of its own Frangipani FS.
package export

import (
	"errors"
	"fmt"
	"io"
	"time"

	"frangipani/internal/fs"
	"frangipani/internal/obs"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// Wire messages. All calls; clients are request/response.
type (
	// LookupReq resolves a path to attributes.
	LookupReq struct{ Path string }
	// AttrResp carries attributes or an error string.
	AttrResp struct {
		OK    bool
		Err   string
		Inum  int64
		Type  uint16
		Size  int64
		Nlink int
		Mtime int64
	}
	// ReadReq reads Count bytes of a file at Off.
	ReadReq struct {
		Path  string
		Off   int64
		Count int
	}
	// ReadResp returns data; EOF reports a short read at end.
	ReadResp struct {
		OK   bool
		Err  string
		Data []byte
		EOF  bool
	}
	// WriteReq writes Data at Off, creating the file if Create.
	WriteReq struct {
		Path   string
		Off    int64
		Data   []byte
		Create bool
		Stable bool // fsync before replying (NFSv2-style stable write)
	}
	// StatusResp acknowledges a mutation.
	StatusResp struct {
		OK  bool
		Err string
	}
	// MkdirReq, RemoveReq, RenameReq, SymlinkReq, ReaddirReq mirror
	// the file system operations.
	MkdirReq  struct{ Path string }
	RemoveReq struct {
		Path string
		Dir  bool
	}
	RenameReq  struct{ Src, Dst string }
	SymlinkReq struct{ Target, Path string }
	ReaddirReq struct{ Path string }
	// ReaddirResp lists names and types.
	ReaddirResp struct {
		OK    bool
		Err   string
		Names []string
		Types []uint16
	}
)

// WireSize implementations for the data-bearing messages.

// WireSize reports the read payload size.
func (r ReadResp) WireSize() int { return len(r.Data) }

// WireSize reports the write payload size.
func (w WriteReq) WireSize() int { return len(w.Data) }

// Addr returns the network name an export server listens on.
func Addr(machine string) string { return machine + ".export" }

// Server exports one Frangipani file server to remote clients.
type Server struct {
	fs *fs.FS
	ep *rpc.Endpoint
}

// NewServer starts exporting f on its machine's export address.
func NewServer(w *sim.World, f *fs.FS) *Server {
	s := &Server{fs: f}
	s.ep = rpc.NewEndpoint(Addr(f.Machine()), rpc.SimCarrier{Net: w.Net}, w.Clock, s.handle)
	return s
}

// Close stops serving.
func (s *Server) Close() { s.ep.Close() }

func errResp(err error) StatusResp {
	if err == nil {
		return StatusResp{OK: true}
	}
	return StatusResp{Err: err.Error()}
}

func (s *Server) handle(_ *obs.Span, from string, body any) any {
	switch m := body.(type) {
	case LookupReq:
		info, err := s.fs.Stat(m.Path)
		if err != nil {
			return AttrResp{Err: err.Error()}
		}
		return AttrResp{OK: true, Inum: info.Inum, Type: uint16(info.Type),
			Size: info.Size, Nlink: info.Nlink, Mtime: info.Mtime}
	case ReadReq:
		h, err := s.fs.Open(m.Path)
		if err != nil {
			return ReadResp{Err: err.Error()}
		}
		buf := make([]byte, m.Count)
		n, err := h.ReadAt(buf, m.Off)
		eof := errors.Is(err, io.EOF)
		if err != nil && !eof {
			return ReadResp{Err: err.Error()}
		}
		return ReadResp{OK: true, Data: buf[:n], EOF: eof}
	case WriteReq:
		h, err := s.fs.OpenFile(m.Path, m.Create)
		if err != nil {
			return StatusResp{Err: err.Error()}
		}
		if _, err := h.WriteAt(m.Data, m.Off); err != nil {
			return StatusResp{Err: err.Error()}
		}
		if m.Stable {
			if err := h.Sync(); err != nil {
				return StatusResp{Err: err.Error()}
			}
		}
		return StatusResp{OK: true}
	case MkdirReq:
		return errResp(s.fs.Mkdir(m.Path))
	case RemoveReq:
		if m.Dir {
			return errResp(s.fs.Rmdir(m.Path))
		}
		return errResp(s.fs.Remove(m.Path))
	case RenameReq:
		return errResp(s.fs.Rename(m.Src, m.Dst))
	case SymlinkReq:
		return errResp(s.fs.Symlink(m.Target, m.Path))
	case ReaddirReq:
		ents, err := s.fs.ReadDir(m.Path)
		if err != nil {
			return ReaddirResp{Err: err.Error()}
		}
		out := ReaddirResp{OK: true}
		for _, e := range ents {
			out.Names = append(out.Names, e.Name)
			out.Types = append(out.Types, uint16(e.Type))
		}
		return out
	}
	return nil
}

// Client accesses an exported volume from an untrusted machine. It
// fails over across the provided export servers: "the technique of
// having a new machine take over the IP address of a failed machine
// has been used in other systems and could be applied here" — we
// retry the next server instead, which gives the same continuity.
type Client struct {
	ep      *rpc.Endpoint
	clock   *sim.Clock
	servers []string
	timeout time.Duration
}

// NewClient creates a remote client on machine, pointed at the export
// servers (trusted Frangipani machines).
func NewClient(w *sim.World, machine string, servers []string) *Client {
	return &Client{
		ep:      rpc.NewEndpoint(machine+".nfsc", rpc.SimCarrier{Net: w.Net}, w.Clock, nil),
		clock:   w.Clock,
		servers: append([]string(nil), servers...),
		timeout: 10 * time.Second,
	}
}

// Close releases the client's endpoint.
func (c *Client) Close() { c.ep.Close() }

// call tries each export server in turn until one answers.
func (c *Client) call(req any) (any, error) {
	var lastErr error = errors.New("export: no server reachable")
	for _, s := range c.servers {
		resp, err := c.ep.Call(nil, Addr(s), req, c.timeout)
		if err != nil {
			lastErr = err
			continue
		}
		return resp, nil
	}
	return nil, lastErr
}

// Stat resolves a path remotely.
func (c *Client) Stat(path string) (AttrResp, error) {
	resp, err := c.call(LookupReq{Path: path})
	if err != nil {
		return AttrResp{}, err
	}
	ar, ok := resp.(AttrResp)
	if !ok {
		return AttrResp{}, fmt.Errorf("export: bad response %T", resp)
	}
	if !ar.OK {
		return AttrResp{}, errors.New(ar.Err)
	}
	return ar, nil
}

// Read reads up to count bytes at off.
func (c *Client) Read(path string, off int64, count int) ([]byte, bool, error) {
	resp, err := c.call(ReadReq{Path: path, Off: off, Count: count})
	if err != nil {
		return nil, false, err
	}
	rr, ok := resp.(ReadResp)
	if !ok {
		return nil, false, fmt.Errorf("export: bad response %T", resp)
	}
	if !rr.OK {
		return nil, false, errors.New(rr.Err)
	}
	return rr.Data, rr.EOF, nil
}

// Write writes data at off, optionally creating and optionally
// waiting for stability.
func (c *Client) Write(path string, off int64, data []byte, create, stable bool) error {
	resp, err := c.call(WriteReq{Path: path, Off: off, Data: data, Create: create, Stable: stable})
	if err != nil {
		return err
	}
	return statusErr(resp)
}

// Mkdir creates a directory remotely.
func (c *Client) Mkdir(path string) error {
	resp, err := c.call(MkdirReq{Path: path})
	if err != nil {
		return err
	}
	return statusErr(resp)
}

// Remove unlinks a file; RemoveDir removes a directory.
func (c *Client) Remove(path string) error {
	resp, err := c.call(RemoveReq{Path: path})
	if err != nil {
		return err
	}
	return statusErr(resp)
}

// RemoveDir removes an empty directory remotely.
func (c *Client) RemoveDir(path string) error {
	resp, err := c.call(RemoveReq{Path: path, Dir: true})
	if err != nil {
		return err
	}
	return statusErr(resp)
}

// Rename moves src to dst remotely.
func (c *Client) Rename(src, dst string) error {
	resp, err := c.call(RenameReq{Src: src, Dst: dst})
	if err != nil {
		return err
	}
	return statusErr(resp)
}

// Symlink creates a symlink remotely.
func (c *Client) Symlink(target, path string) error {
	resp, err := c.call(SymlinkReq{Target: target, Path: path})
	if err != nil {
		return err
	}
	return statusErr(resp)
}

// Readdir lists a directory remotely.
func (c *Client) Readdir(path string) ([]string, error) {
	resp, err := c.call(ReaddirReq{Path: path})
	if err != nil {
		return nil, err
	}
	rr, ok := resp.(ReaddirResp)
	if !ok {
		return nil, fmt.Errorf("export: bad response %T", resp)
	}
	if !rr.OK {
		return nil, errors.New(rr.Err)
	}
	return rr.Names, nil
}

func statusErr(resp any) error {
	sr, ok := resp.(StatusResp)
	if !ok {
		return fmt.Errorf("export: bad response %T", resp)
	}
	if !sr.OK {
		return errors.New(sr.Err)
	}
	return nil
}
