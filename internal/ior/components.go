package ior

import (
	"fmt"

	"eternalgw/internal/cdr"
)

// Tagged components (CORBA 2.3 §13.6.5): typed entries inside a
// TAG_MULTIPLE_COMPONENTS profile. IORs published by this repository can
// carry an ORB-type marker and a fault-tolerance domain label so tools
// (cmd/iordump) and peers can tell which infrastructure minted a
// reference and which domain it belongs to.

// Component tags.
const (
	// TagORBType is the OMG-assigned TAG_ORB_TYPE component.
	TagORBType uint32 = 0
	// TagFTDomain is a private component carrying the fault tolerance
	// domain's name. Unknown components are ignored by readers, per the
	// specification, so this is safe to attach anywhere.
	TagFTDomain uint32 = 0x45544724 // "ETG$"
)

// ORBTypeEternalGW identifies this implementation in TAG_ORB_TYPE.
// (Vendor ORB type ids are assigned by the OMG; this value sits in the
// range conventionally used by open-source experiments.)
const ORBTypeEternalGW uint32 = 0x45544700 // "ETG\0"

// Component is one tagged component.
type Component struct {
	Tag  uint32
	Data []byte
}

// WithComponents returns a copy of the reference with a
// TAG_MULTIPLE_COMPONENTS profile holding the given components appended.
func (r Ref) WithComponents(components ...Component) Ref {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteOctet(byte(cdr.BigEndian))
	w.WriteULong(uint32(len(components)))
	for _, c := range components {
		w.WriteULong(c.Tag)
		w.WriteOctetSeq(c.Data)
	}
	out := Ref{TypeID: r.TypeID, Profiles: append(append([]TaggedProfile(nil), r.Profiles...), TaggedProfile{
		Tag:  TagMultipleComponents,
		Data: w.Bytes(),
	})}
	return out
}

// Components decodes every tagged component from the reference's
// TAG_MULTIPLE_COMPONENTS profiles, in order.
func (r Ref) Components() ([]Component, error) {
	var out []Component
	for _, p := range r.Profiles {
		if p.Tag != TagMultipleComponents {
			continue
		}
		if len(p.Data) == 0 {
			return nil, fmt.Errorf("ior: empty multiple-components profile")
		}
		rd := cdr.NewReader(p.Data, cdr.ByteOrder(p.Data[0]&1))
		rd.ReadOctet() // byte-order flag
		n := rd.ReadULong()
		if rd.Err() != nil {
			return nil, fmt.Errorf("ior: decode components: %w", rd.Err())
		}
		for i := uint32(0); i < n && rd.Err() == nil; i++ {
			tag := rd.ReadULong()
			data := rd.ReadOctetSeq()
			cp := make([]byte, len(data))
			copy(cp, data)
			out = append(out, Component{Tag: tag, Data: cp})
		}
		if rd.Err() != nil {
			return nil, fmt.Errorf("ior: decode components: %w", rd.Err())
		}
	}
	return out, nil
}

// ORBTypeComponent builds a TAG_ORB_TYPE component.
func ORBTypeComponent(orbType uint32) Component {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteOctet(byte(cdr.BigEndian))
	w.WriteULong(orbType)
	return Component{Tag: TagORBType, Data: w.Bytes()}
}

// ORBType extracts the TAG_ORB_TYPE value, if present.
func (r Ref) ORBType() (uint32, bool) {
	cs, err := r.Components()
	if err != nil {
		return 0, false
	}
	for _, c := range cs {
		if c.Tag != TagORBType || len(c.Data) == 0 {
			continue
		}
		rd := cdr.NewReader(c.Data, cdr.ByteOrder(c.Data[0]&1))
		rd.ReadOctet()
		v := rd.ReadULong()
		if rd.Err() == nil {
			return v, true
		}
	}
	return 0, false
}

// FTDomainComponent builds the private fault-tolerance-domain component.
func FTDomainComponent(name string) Component {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteOctet(byte(cdr.BigEndian))
	w.WriteString(name)
	return Component{Tag: TagFTDomain, Data: w.Bytes()}
}

// FTDomain extracts the fault-tolerance-domain label, if present.
func (r Ref) FTDomain() (string, bool) {
	cs, err := r.Components()
	if err != nil {
		return "", false
	}
	for _, c := range cs {
		if c.Tag != TagFTDomain || len(c.Data) == 0 {
			continue
		}
		rd := cdr.NewReader(c.Data, cdr.ByteOrder(c.Data[0]&1))
		rd.ReadOctet()
		name := rd.ReadString()
		if rd.Err() == nil {
			return name, true
		}
	}
	return "", false
}
