// Package sysinit models the system initialization redesign: the
// proposal (Luniewski) that certain parts of initialization be done
// in a user process environment in a previous system incarnation,
// removing an estimated 2,000 lines from the kernel.
//
// Initialization is a plan of steps, each of which either must run in
// the kernel of the booting incarnation (setting descriptor tables,
// wiring core segments) or can run as an ordinary user program in the
// PREVIOUS incarnation, producing a boot image the next kernel merely
// verifies and loads.
package sysinit

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
)

// Env says where a step may run.
type Env int

const (
	// Kernel: must run inside the booting kernel.
	Kernel Env = iota
	// UserProcess: can run in a user process of a previous
	// incarnation.
	UserProcess
)

func (e Env) String() string {
	if e == Kernel {
		return "kernel"
	}
	return "user-process"
}

// An Image is the boot image a previous incarnation prepares: named,
// checksummed configuration artifacts the next kernel loads.
type Image struct {
	entries map[string]uint64
	sum     uint64
}

// NewImage returns an empty image.
func NewImage() *Image {
	return &Image{entries: make(map[string]uint64)}
}

// Put stores an artifact.
func (im *Image) Put(name string, value uint64) {
	im.entries[name] = value
	im.reseal()
}

// Get fetches an artifact.
func (im *Image) Get(name string) (uint64, bool) {
	v, ok := im.entries[name]
	return v, ok
}

func (im *Image) reseal() {
	h := fnv.New64a()
	names := make([]string, 0, len(im.entries))
	for n := range im.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		_, _ = h.Write([]byte(n))
		v := im.entries[n]
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:])
	}
	im.sum = h.Sum64()
}

// Verify recomputes the checksum; the kernel refuses a tampered
// image.
func (im *Image) Verify() error {
	old := im.sum
	im.reseal()
	if im.sum != old {
		return errors.New("sysinit: boot image checksum mismatch")
	}
	return nil
}

// A Step is one unit of initialization work.
type Step struct {
	Name  string
	Env   Env
	Lines int // source lines the step contributes to its environment
	Run   func(*Image) error
}

// A Plan is an ordered initialization plan.
type Plan struct {
	Steps []Step
}

// KernelLines reports the source lines the plan keeps in the kernel.
func (p *Plan) KernelLines() int {
	n := 0
	for _, s := range p.Steps {
		if s.Env == Kernel {
			n += s.Lines
		}
	}
	return n
}

// RunUserPhase executes the user-process steps in a previous
// incarnation, producing the boot image.
func (p *Plan) RunUserPhase() (*Image, error) {
	im := NewImage()
	for _, s := range p.Steps {
		if s.Env != UserProcess {
			continue
		}
		if err := s.Run(im); err != nil {
			return nil, fmt.Errorf("sysinit: user step %s: %w", s.Name, err)
		}
	}
	return im, nil
}

// RunKernelPhase executes the kernel steps of the booting
// incarnation against a verified image.
func (p *Plan) RunKernelPhase(im *Image) error {
	if im == nil {
		return errors.New("sysinit: no boot image")
	}
	if err := im.Verify(); err != nil {
		return err
	}
	for _, s := range p.Steps {
		if s.Env != Kernel {
			continue
		}
		if err := s.Run(im); err != nil {
			return fmt.Errorf("sysinit: kernel step %s: %w", s.Name, err)
		}
	}
	return nil
}

// standardSteps is the initialization work of the system, with the
// environment assignment chosen by style: in the old style every step
// is kernel code; in the new style everything that only computes
// configuration moves to a prior incarnation's user process.
func standardSteps(newStyle bool) []Step {
	env := func(movable bool) Env {
		if newStyle && movable {
			return UserProcess
		}
		return Kernel
	}
	return []Step{
		{
			Name: "parse-config-deck", Env: env(true), Lines: 600,
			Run: func(im *Image) error { im.Put("config.mem-frames", 96); im.Put("config.vprocs", 8); return nil },
		},
		{
			Name: "plan-core-segment-layout", Env: env(true), Lines: 700,
			Run: func(im *Image) error { im.Put("layout.wired-frames", 8); return nil },
		},
		{
			Name: "build-pack-tables", Env: env(true), Lines: 700,
			Run: func(im *Image) error { im.Put("packs.count", 2); return nil },
		},
		{
			Name: "wire-core-segments", Env: Kernel, Lines: 300,
			Run: func(im *Image) error {
				if _, ok := im.Get("layout.wired-frames"); !ok {
					return errors.New("no layout in image")
				}
				return nil
			},
		},
		{
			Name: "install-descriptor-tables", Env: Kernel, Lines: 250,
			Run: func(im *Image) error { return nil },
		},
		{
			Name: "start-virtual-processors", Env: Kernel, Lines: 150,
			Run: func(im *Image) error {
				if _, ok := im.Get("config.vprocs"); !ok {
					return errors.New("no processor count in image")
				}
				return nil
			},
		},
	}
}

// OldPlan is the pre-redesign plan: all 2,700 lines in the kernel.
func OldPlan() *Plan { return &Plan{Steps: standardSteps(false)} }

// NewPlan is the redesigned plan: the 2,000 movable lines run as a
// user program in a previous incarnation; 700 remain in the kernel.
func NewPlan() *Plan { return &Plan{Steps: standardSteps(true)} }
