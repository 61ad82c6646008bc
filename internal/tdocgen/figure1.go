package tdocgen

import (
	"txmldb/internal/model"
	"txmldb/internal/xmltree"
)

// Figure1URL is the document name of the paper's running example.
const Figure1URL = "http://guide.com/restaurants.xml"

// LoadFigure1 plays the paper's Figure 1 history into an already-open
// database (in-memory, durable or sharded): the restaurant list at
// guide.com as retrieved on January 1st (Napoli 15), January 15th
// (Napoli 15, Akropolis 13) and January 31st (Napoli 18).
func LoadFigure1(l Loader) error {
	mk := func(entries ...[2]string) *xmltree.Node {
		g := xmltree.NewElement("guide")
		for _, e := range entries {
			g.AppendChild(xmltree.Elem("restaurant",
				xmltree.ElemText("name", e[0]),
				xmltree.ElemText("price", e[1])))
		}
		return g
	}
	id, err := l.Put(Figure1URL, mk([2]string{"Napoli", "15"}), model.Date(2001, 1, 1))
	if err != nil {
		return err
	}
	if _, _, err := l.Update(id, mk([2]string{"Napoli", "15"}, [2]string{"Akropolis", "13"}), model.Date(2001, 1, 15)); err != nil {
		return err
	}
	if _, _, err := l.Update(id, mk([2]string{"Napoli", "18"}), model.Date(2001, 1, 31)); err != nil {
		return err
	}
	return nil
}
