// Package a is the cachealias fixture. It imports the real vcache so the
// analyzer is exercised against the actual taint-source types.
package a

import (
	"txmldb/internal/model"
	"txmldb/internal/store"
	"txmldb/internal/vcache"
	"txmldb/internal/xmltree"
)

func writeThroughCachedRoot(c *vcache.Cache) error {
	vt, err := c.Get(model.DocID(1), model.VersionNo(2))
	if err != nil {
		return err
	}
	vt.Root.Value = "edited" // want "write through vt mutates a tree shared with vcache.Cache.Get"
	return nil
}

func writeThroughAlias(c *vcache.Cache) error {
	vt, err := c.Get(model.DocID(1), model.VersionNo(2))
	if err != nil {
		return err
	}
	r := vt.Root
	r.Name = "edited" // want "write through r mutates a tree shared with vcache.Cache.Get"
	return nil
}

func writeChildSlice(c *vcache.Cache) error {
	vt, err := c.Get(model.DocID(1), model.VersionNo(2))
	if err != nil {
		return err
	}
	vt.Root.Children[0] = nil // want "write through vt mutates a tree shared with vcache.Cache.Get"
	return nil
}

func cloneThenWrite(c *vcache.Cache) (*xmltree.Node, error) {
	vt, err := c.Get(model.DocID(1), model.VersionNo(2))
	if err != nil {
		return nil, err
	}
	root := vt.Root.Clone()
	root.Value = "edited" // owned copy: allowed
	return root, nil
}

func rebindClearsTaint(c *vcache.Cache, fresh *xmltree.Node) error {
	vt, err := c.Get(model.DocID(1), model.VersionNo(2))
	if err != nil {
		return err
	}
	r := vt.Root
	r = fresh
	r.Value = "edited" // r no longer aliases the cache: allowed
	return nil
}

func valueFieldWrite(c *vcache.Cache) error {
	vt, err := c.Get(model.DocID(1), model.VersionNo(2))
	if err != nil {
		return err
	}
	vt.Info.Ver = 9 // local struct copy, not shared memory: allowed
	_ = vt
	return nil
}

func readOnly(c *vcache.Cache) (string, error) {
	vt, err := c.Get(model.DocID(1), model.VersionNo(2))
	if err != nil {
		return "", err
	}
	return vt.Root.Name, nil // reads never need a clone
}

func writeThroughPublishedTree(s *store.Store) error {
	cur, _, err := s.Published(model.DocID(1))
	if err != nil {
		return err
	}
	cur.Children[0].Value = "edited" // want "write through cur mutates a tree shared with store.Store.Published"
	return nil
}

func clonedPublishedTree(s *store.Store) error {
	cur, _, err := s.Published(model.DocID(1))
	if err != nil {
		return err
	}
	own := cur.Clone()
	own.Value = "edited" // owned copy: allowed
	return nil
}
